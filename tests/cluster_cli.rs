//! End-to-end tests of the multi-process cluster CLI (DESIGN.md §13):
//! `sya shard-coordinator` spawns real `sya shard-worker` processes,
//! exchanges halos over TCP, and must reproduce the in-process sharded
//! scores byte for byte. The crash/restart and degraded paths are
//! exercised process-for-real in the CI chaos smoke (ci.sh), which can
//! SIGKILL workers mid-run; here we keep to what a test harness can do
//! deterministically on any machine.

use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

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

/// A running `sya serve` child, killed on drop so a failing test leaves
/// no server behind.
struct Served {
    child: Child,
    addr: String,
}

impl Served {
    /// Starts `sya serve` with `args` and reads the address it prints on
    /// its `serving on http://` line.
    fn spawn(args: &[&str]) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sya"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("sya binary runs");
        let stdout = child.stdout.take().expect("piped stdout");
        let addr = BufReader::new(stdout)
            .lines()
            .find_map(|line| Some(line.ok()?.strip_prefix("serving on http://")?.to_owned()));
        let served = Served { child, addr: addr.unwrap_or_default() };
        assert!(!served.addr.is_empty(), "sya serve {args:?} never reported its address");
        served
    }

    /// SIGTERMs the server and returns its exit code.
    fn terminate(mut self) -> i32 {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
        assert!(sent.success(), "SIGTERM to {pid} failed");
        self.child.wait().expect("server exits").code().unwrap_or(-1)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // A no-op once `terminate` has reaped the child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange over a raw socket: (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("server answers");
    let status = raw.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_owned();
    (status, body)
}

#[test]
fn sharded_serve_is_one_live_kb_with_unsharded_answers() {
    let dir = tmpdir("serve");
    let program = write_file(&dir, "p.ddlog", PROGRAM);
    let wells = write_file(&dir, "wells.csv", WELLS);
    let ckpt_dir = dir.join("ckpts");
    let table = format!("Well={wells}");
    let common = [
        program.as_str(),
        "--table",
        &table,
        "--epochs",
        "160",
        "--bandwidth",
        "2",
        "--radius",
        "4",
        "--partition-level",
        "2",
        "--listen",
        "127.0.0.1:0",
        "--serve-workers",
        "1",
    ];
    // (score, epoch) of every well's atom.
    let marginals = |addr: &str| -> Vec<(f64, u64)> {
        (0..6)
            .map(|id| {
                let path = format!("/v1/marginal/IsSafe?args={id}");
                let (status, body) = http(addr, "GET", &path, "");
                assert_eq!(status, 200, "IsSafe({id}): {body}");
                let m: Json = serde_json::from_str(&body).expect("marginal JSON");
                (m["score"].as_f64().expect("score"), m["epoch"].as_u64().expect("epoch"))
            })
            .collect()
    };

    // The one-shard construct is the unsharded reference: a sharded
    // construct is one spatial instance, as in the CLI run parity test.
    let mut args = common.to_vec();
    args.extend(["--shards", "1"]);
    let unsharded = Served::spawn(&args);
    let reference = marginals(&unsharded.addr);
    assert_eq!(unsharded.terminate(), 0, "unsharded serve must exit cleanly on SIGTERM");

    let mut args = common.to_vec();
    args.extend(["--shards", "2", "--checkpoint-dir", ckpt_dir.to_str().unwrap()]);
    let sharded = Served::spawn(&args);
    let addr = sharded.addr.clone();
    // Epoch 0: the sharded construct is the unsharded one, served whole.
    assert_eq!(marginals(&addr), reference, "--shards 2 must serve the unsharded scores");

    // The one live KB absorbs a base-row insert differentially.
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/rows",
        r#"{"updates":[{"op":"insert","relation":"Well","row":[6,[1.5,0.5],0.1]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let outcome: Json = serde_json::from_str(&body).expect("rows JSON");
    assert!(outcome["vars_added"].as_u64().unwrap_or(0) >= 1, "{outcome}");
    let (status, body) = http(&addr, "GET", "/v1/marginal/IsSafe?args=6", "");
    assert_eq!(status, 200, "the inserted well's atom is served: {body}");
    assert_eq!(sharded.terminate(), 0, "sharded serve must exit cleanly on SIGTERM");

    // Serving keeps no per-shard replicas, so no per-shard stores.
    let entries: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        entries.iter().all(|name| !name.starts_with("serve-shard-")),
        "per-shard serve stores: {entries:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
