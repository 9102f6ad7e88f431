//! # sya-lang — the spatial DDlog language module
//!
//! Sya extends DeepDive's DDlog language (paper Section III) with spatial
//! data types, the `@spatial(w)` variable-relation annotation, spatial
//! predicates in rule bodies, and spatial UDFs. This crate implements the
//! complete front-end:
//!
//! * [`lexer`] / [`parser`] — text → [`ast::Program`];
//! * [`ast`] — schema declarations (typical relations and `?`-suffixed
//!   variable relations), derivation rules, weighted inference rules with
//!   condition lists;
//! * [`validate`] — the checks the paper's language module performs
//!   ("checks the syntax correctness and the validity of used spatial
//!   constructs"): `@spatial` only on variable relations with a spatial
//!   attribute, arity and type agreement, bound variables in conditions;
//! * [`compile`] — lowering to a typed rule IR the grounding module
//!   executes, with named-geometry constant resolution;
//! * [`udf`] — the spatial named-entity-recognition UDF (a deterministic
//!   gazetteer matcher standing in for the GeoTxt library);
//! * [`printer`] — a pretty-printer whose output re-parses to the same
//!   AST (used for round-trip property tests).
//!
//! # Example
//!
//! ```
//! use sya_lang::parse_program;
//!
//! let src = r#"
//! County(id bigint, location point, hasLowSanitation bool).
//! @spatial(exp)
//! HasEbola?(id bigint, location point).
//! D1: HasEbola(C1, L1) = NULL :- County(C1, L1, _).
//! R1: @weight(0.35)
//!     HasEbola(C1, L1) => HasEbola(C2, L2) :-
//!     County(C1, L1, _), County(C2, L2, S2)
//!     [distance(L1, L2) < 150, S2 = true].
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.schemas().count(), 2);
//! assert_eq!(program.rules().count(), 2);
//! ```

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod udf;
pub mod validate;

pub use ast::{
    Annotation, Atom, BodyAtom, CExpr, CmpOp, HeadOp, Literal, Program, Rule, RuleHead,
    SchemaDecl, SpatialFnName, Term,
};
pub use compile::{compile, CompiledAtom, CompiledProgram, CompiledRule, GeomConstants,
    RuleKind, SlotTerm};
pub use parser::{parse_program, ParseError};
pub use printer::print_program;
pub use udf::{Gazetteer, SpatialMention};
pub use validate::{validate, ValidateError};

use sya_geom::DistanceMetric;
use sya_obs::Obs;

/// Observed variant of [`parse_program`]: wraps the parse in a
/// `lang.parse` span and records `lang.schemas_total` / `lang.rules_total`
/// counters. A disabled handle makes this identical to [`parse_program`].
pub fn parse_program_with(src: &str, obs: &Obs) -> Result<Program, ParseError> {
    let mut span = obs.span_with(
        "lang.parse",
        vec![("bytes".to_string(), src.len().to_string())],
    );
    let program = parse_program(src)?;
    let schemas = program.schemas().count();
    let rules = program.rules().count();
    span.set_attr("schemas", schemas);
    span.set_attr("rules", rules);
    obs.counter_add("lang.schemas_total", schemas as u64);
    obs.counter_add("lang.rules_total", rules as u64);
    Ok(program)
}

/// Observed variant of [`compile`]: wraps validation + lowering in a
/// `lang.compile` span and records `lang.compiled_rules_total`.
pub fn compile_with(
    program: &Program,
    constants: &GeomConstants,
    metric: DistanceMetric,
    obs: &Obs,
) -> Result<CompiledProgram, ValidateError> {
    let mut span = obs.span("lang.compile");
    let compiled = compile(program, constants, metric)?;
    span.set_attr("rules", compiled.rules.len());
    obs.counter_add("lang.compiled_rules_total", compiled.rules.len() as u64);
    Ok(compiled)
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    const SRC: &str = r#"
        Well(id bigint, location point).
        @spatial(exp)
        IsSafe?(id bigint, location point).
        D1: IsSafe(W, L) = NULL :- Well(W, L).
    "#;

    #[test]
    fn observed_parse_and_compile_record_spans_and_counters() {
        let obs = Obs::enabled();
        let program = parse_program_with(SRC, &obs).unwrap();
        let compiled =
            compile_with(&program, &GeomConstants::new(), DistanceMetric::Euclidean, &obs)
                .unwrap();
        assert_eq!(compiled.rules.len(), 1);
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter_value("lang.schemas_total"), Some(2));
        assert_eq!(m.counter_value("lang.rules_total"), Some(1));
        assert_eq!(m.counter_value("lang.compiled_rules_total"), Some(1));
        let spans = obs.trace_snapshot().spans;
        assert!(spans.iter().any(|s| s.name == "lang.parse"));
        assert!(spans.iter().any(|s| s.name == "lang.compile"));
    }

    #[test]
    fn disabled_handle_changes_nothing() {
        let obs = Obs::disabled();
        let program = parse_program_with(SRC, &obs).unwrap();
        let plain = parse_program(SRC).unwrap();
        assert_eq!(program, plain);
        assert!(obs.metrics().is_none());
    }
}
