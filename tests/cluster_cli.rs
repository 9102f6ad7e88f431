//! End-to-end tests of the multi-process cluster CLI (DESIGN.md §13):
//! `sya shard-coordinator` spawns real `sya shard-worker` processes,
//! exchanges halos over TCP, and must reproduce the in-process sharded
//! scores byte for byte. The crash/restart and degraded paths are
//! exercised process-for-real in the CI chaos smoke (ci.sh), which can
//! SIGKILL workers mid-run; here we keep to what a test harness can do
//! deterministically on any machine.

use std::path::{Path, PathBuf};
use std::process::Command;

const PROGRAM: &str = "\
Well(id bigint, location point, arsenic double).\n\
@spatial(exp)\n\
IsSafe?(id bigint, location point).\n\
D1: IsSafe(W, L) = NULL :- Well(W, L, _).\n\
R1: @weight(0.8) IsSafe(W1, L1) => IsSafe(W2, L2) :- \
Well(W1, L1, A1), Well(W2, L2, A2) \
[distance(L1, L2) < 3, A1 < 0.3, A2 < 0.3, W1 != W2].\n";

const WELLS: &str = "\
id,location,arsenic\n\
0,POINT(0 0),0.1\n\
1,POINT(1 0),0.1\n\
2,POINT(2 0),0.2\n\
3,POINT(9 0),0.9\n\
4,POINT(0 9),0.4\n\
5,POINT(9 9),0.2\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sya_cluster_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_file(dir: &Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

/// Runs the real `sya` binary and returns (exit code, stdout, stderr).
fn sya(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sya"))
        .args(args)
        .output()
        .expect("sya binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn coordinator_reproduces_the_in_process_sharded_scores_bitwise() {
    let dir = tmpdir("parity");
    let program = write_file(&dir, "p.ddlog", PROGRAM);
    let wells = write_file(&dir, "wells.csv", WELLS);
    let reference = dir.join("reference.csv");
    let clustered = dir.join("clustered.csv");
    let common = [
        "--table",
        &format!("Well={wells}"),
        "--epochs",
        "160",
        "--bandwidth",
        "2",
        "--radius",
        "4",
        "--shards",
        "2",
        "--partition-level",
        "2",
    ];

    // In-process sharded executor: the parity reference.
    let mut args = vec!["run", program.as_str()];
    args.extend_from_slice(&common);
    args.extend(["--output", reference.to_str().unwrap()]);
    let (code, _, err) = sya(&args);
    assert_eq!(code, 0, "reference run failed: {err}");

    // Multi-process cluster: coordinator + two worker processes, halo
    // exchange over loopback TCP.
    let ckpt_dir = dir.join("ckpts");
    let mut args = vec!["shard-coordinator", program.as_str()];
    args.extend_from_slice(&common);
    args.extend([
        "--output",
        clustered.to_str().unwrap(),
        "--heartbeat-ms",
        "10000",
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
        "--checkpoint-every",
        "20",
    ]);
    let (code, _, err) = sya(&args);
    assert_eq!(code, 0, "cluster run failed: {err}");

    let want = std::fs::read(&reference).unwrap();
    let got = std::fs::read(&clustered).unwrap();
    assert!(!want.is_empty());
    assert_eq!(
        want, got,
        "cluster scores must match the in-process executor byte for byte"
    );
    // Workers checkpointed under the manifest layout.
    assert!(dir.join("ckpts").join("shard-manifest.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_server_reports_the_final_healthy_board() {
    let dir = tmpdir("status");
    let program = write_file(&dir, "p.ddlog", PROGRAM);
    let wells = write_file(&dir, "wells.csv", WELLS);
    let (code, out, err) = sya(&[
        "shard-coordinator",
        &program,
        "--table",
        &format!("Well={wells}"),
        "--epochs",
        "60",
        "--bandwidth",
        "2",
        "--radius",
        "4",
        "--shards",
        "2",
        "--partition-level",
        "2",
        "--heartbeat-ms",
        "10000",
        "--status-listen",
        "127.0.0.1:0",
    ]);
    assert_eq!(code, 0, "cluster run failed: {err}");
    // The bound status address is printed before the run for smoke
    // scripts to grep; the run then completes with scores on stdout.
    assert!(out.contains("status on http://127.0.0.1:"), "{out}");
    assert!(out.contains("relation,id,score"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_subcommands_validate_their_flags() {
    let dir = tmpdir("flags");
    let program = write_file(&dir, "p.ddlog", PROGRAM);
    let cases: &[(&[&str], &str)] = &[
        (&["shard-coordinator", &program], "--shards"),
        (&["shard-worker", &program, "--shards", "2"], "--shard"),
        (
            &["shard-worker", &program, "--shards", "2", "--shard", "0"],
            "--connect",
        ),
        (
            &["shard-worker", &program, "--shard", "0", "--connect", "127.0.0.1:1"],
            "--shards",
        ),
        (&["run", &program, "--status-linger"], "--status-listen"),
    ];
    for (args, needle) in cases {
        let (code, _, err) = sya(args);
        assert_eq!(code, 1, "{args:?} should be rejected");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
