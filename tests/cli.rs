//! End-to-end tests of the `pbdmm` command-line binary: generate → match →
//! dynamic → cover pipelines through real files and process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pbdmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(args)
        .output()
        .expect("failed to run pbdmm binary")
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pbdmm_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_then_match_pipeline() {
    let path = tmpfile("er.hgr");
    let out = pbdmm(&[
        "gen",
        "er",
        "--n",
        "200",
        "--m",
        "800",
        "--seed",
        "3",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["match", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matching size:"), "{stdout}");
    assert!(stdout.contains("m=800"), "{stdout}");
}

#[test]
fn dynamic_replay_reports_stats() {
    let path = tmpfile("dyn.hgr");
    pbdmm(&[
        "gen",
        "er",
        "--n",
        "100",
        "--m",
        "400",
        "--seed",
        "5",
        "-o",
        path.to_str().unwrap(),
    ]);
    for order in ["uniform", "fifo", "lifo", "clustered", "degree"] {
        let out = pbdmm(&[
            "dynamic",
            path.to_str().unwrap(),
            "--batch",
            "64",
            "--order",
            order,
        ]);
        assert!(out.status.success(), "order {order}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("mean payment phi"), "{stdout}");
        assert!(stdout.contains("800 updates"), "{stdout}");
    }
}

#[test]
fn cover_on_hypergraph() {
    let path = tmpfile("cover.hgr");
    pbdmm(&[
        "gen",
        "hyper",
        "--n",
        "50",
        "--m",
        "200",
        "--rank",
        "3",
        "--seed",
        "7",
        "-o",
        path.to_str().unwrap(),
    ]);
    let out = pbdmm(&["cover", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cover size:"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_message() {
    let out = pbdmm(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = pbdmm(&["match", "/nonexistent/file.hgr"]);
    assert!(!out.status.success());

    let out = pbdmm(&["dynamic"]);
    assert!(!out.status.success());

    let out = pbdmm(&["frobnicate", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn malformed_graph_file_is_rejected() {
    let path = tmpfile("bad.hgr");
    std::fs::write(&path, "0 1\nnot numbers\n").unwrap();
    let out = pbdmm(&["match", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn threads_flag_is_validated() {
    let path = tmpfile("threads.hgr");
    pbdmm(&[
        "gen",
        "er",
        "--n",
        "30",
        "--m",
        "60",
        "--seed",
        "1",
        "-o",
        path.to_str().unwrap(),
    ]);
    // Zero is rejected with a clear message, not passed through silently.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--threads 0 is invalid"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Non-numeric likewise.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "two"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("positive integer"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A positive count works.
    let out = pbdmm(&["match", path.to_str().unwrap(), "--threads", "2"]);
    assert!(out.status.success());
}

#[test]
fn serve_records_wal_and_replay_reproduces_final_state() {
    let wal = tmpfile("serve.waldir");
    // The service refuses to overwrite an existing WAL; start clean.
    std::fs::remove_dir_all(&wal).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "600",
        "--max-batch",
        "128",
        "--max-delay-us",
        "300",
        "--seed",
        "9",
        "--wal",
        wal.to_str().unwrap(),
        "--compare",
        "none",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coalesced service:"), "{stdout}");
    assert!(stdout.contains("ticket latency:"), "{stdout}");
    let served_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("serve prints a final state line")
        .to_string();
    // The final line carries the epoch (= updates applied), so the diff
    // below also pins serve and replay to the same apply-history position.
    assert!(served_final.contains("epoch=1200"), "{served_final}");

    // Replay must reproduce the exact final state and pass verification.
    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replayed_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("replay prints a final state line")
        .to_string();
    assert_eq!(served_final, replayed_final, "{stdout}");
    assert!(stdout.contains("invariants: ok"), "{stdout}");
    std::fs::remove_dir_all(&wal).ok();
}

#[test]
fn serve_supports_setcover_and_compare_direct() {
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "200",
        "--structure",
        "setcover",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cover="), "{stdout}");
    assert!(stdout.contains("direct singleton"), "{stdout}");
    assert!(stdout.contains("coalescing speedup:"), "{stdout}");
}

#[test]
fn serve_sustains_concurrent_readers_with_zero_failed_queries() {
    // The acceptance workload: 4 reader threads resolving snapshot point
    // queries while writers run; every query must succeed and the
    // staleness report must be present.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "500",
        "--readers",
        "4",
        "--wal",
        "none",
        "--compare",
        "none",
        "--seed",
        "11",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reads:"), "{stdout}");
    assert!(
        stdout.contains("(4 readers, failed queries: 0)"),
        "{stdout}"
    );
    assert!(stdout.contains("snapshot staleness: p50"), "{stdout}");
    assert!(stdout.contains("epoch=1000"), "{stdout}");

    // --readers 0 turns the read tier off entirely.
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "100",
        "--readers",
        "0",
        "--wal",
        "none",
        "--compare",
        "none",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("reads:"), "{stdout}");
}

#[test]
fn replay_rejects_garbage() {
    let bad = tmpfile("bad.waldir");
    std::fs::remove_dir_all(&bad).ok();
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::write(bad.join("000000.seg"), "this is not a wal\n").unwrap();
    let out = pbdmm(&["replay", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&bad).ok();
    let out = pbdmm(&["replay"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing WAL directory"));
}

#[test]
fn single_file_log_is_refused_with_a_lossless_conversion_hint() {
    // A single-file log is byte-identical to a first segment: take one
    // from a one-segment directory, then check that replay refuses the
    // bare file with the conversion hint, and that following the hint
    // reproduces the served final state.
    let served = tmpfile("v1_source.waldir");
    let file = tmpfile("v1_log.wal");
    let converted = tmpfile("v1_converted.waldir");
    for dir in [&served, &converted] {
        std::fs::remove_dir_all(dir).ok();
    }
    let out = pbdmm(&[
        "serve",
        "--producers",
        "1",
        "--updates",
        "200",
        "--readers",
        "0",
        "--compare",
        "none",
        "--wal-sync",
        "false",
        "--checkpoint-every",
        "0",
        "--wal",
        served.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served_final = String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("serve prints a final state line")
        .to_string();
    std::fs::copy(served.join("000000.seg"), &file).unwrap();

    for cmd in [
        vec!["replay", file.to_str().unwrap()],
        vec!["serve", "--wal", file.to_str().unwrap()],
    ] {
        let out = pbdmm(&cmd);
        assert!(!out.status.success(), "{cmd:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("mkdir D && mv") && stderr.contains("D/000000.seg"),
            "{cmd:?}: {stderr}"
        );
    }

    std::fs::create_dir_all(&converted).unwrap();
    std::fs::rename(&file, converted.join("000000.seg")).unwrap();
    let out = pbdmm(&["replay", converted.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == served_final), "{stdout}");
    for dir in [&served, &converted] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn flags_a_subcommand_does_not_read_are_rejected() {
    // A small real WAL, so `replay` would otherwise succeed on it.
    let wal = tmpfile("unknown_flags.waldir");
    std::fs::remove_dir_all(&wal).ok();
    let small_serve = [
        "serve",
        "--producers",
        "1",
        "--updates",
        "20",
        "--readers",
        "0",
        "--compare",
        "none",
    ];
    let mut args = small_serve.to_vec();
    args.extend(["--wal", wal.to_str().unwrap(), "--wal-sync", "false"]);
    let out = pbdmm(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert!(out.status.success());

    // The retired `--shards` and a misspelled `--wal-sync` must fail
    // loudly, naming the flag, rather than run with the flag ignored.
    let mut serve_shards = small_serve.to_vec();
    serve_shards.extend(["--wal", "none", "--shards", "2"]);
    let mut serve_typo = small_serve.to_vec();
    serve_typo.extend(["--wal", "none", "--wal-synk", "true"]);
    let cases: [(Vec<&str>, &str); 5] = [
        (serve_shards, "--shards"),
        (
            vec!["replay", wal.to_str().unwrap(), "--shards", "2"],
            "--shards",
        ),
        (serve_typo, "--wal-synk"),
        (vec!["daemon", "--shards", "4"], "--shards"),
        (vec!["load", "--port", "1", "--shards", "4"], "--shards"),
    ];
    for (args, flag) in cases {
        let out = pbdmm(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&wal).ok();
}

/// Spawn `pbdmm daemon --port 0`, scan for its `daemon: listening on`
/// line, and hand back the child for later harvest plus any preamble lines
/// printed before it (e.g. the recovery report).
fn spawn_daemon(extra: &[&str]) -> (std::process::Child, String, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_pbdmm"))
        .args(["daemon", "--port", "0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn pbdmm daemon");
    let (addr, preamble) = {
        let mut reader = BufReader::new(child.stdout.as_mut().unwrap());
        let mut preamble = String::new();
        let mut addr = None;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            if let Some(rest) = line.strip_prefix("daemon: listening on ") {
                addr = Some(rest.trim().to_string());
                break;
            }
            preamble.push_str(&line);
        }
        (addr, preamble)
    };
    let Some(addr) = addr else {
        let _ = child.wait();
        panic!("daemon exited before listening (preamble: {preamble:?})");
    };
    (child, addr, preamble)
}

#[test]
fn daemon_serves_load_and_wal_replay_matches_byte_for_byte() {
    let wal = tmpfile("daemon_cli.waldir");
    let _ = std::fs::remove_dir_all(&wal);
    let (child, addr, _) = spawn_daemon(&["--wal", wal.to_str().unwrap(), "--seed", "11"]);

    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "4",
        "--updates",
        "300",
        "--seed",
        "11",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let load_out = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(load_out.contains("failed queries: 0"), "{load_out}");
    assert!(load_out.contains("0 protocol errors"), "{load_out}");
    assert!(load_out.contains("snapshot staleness:"), "{load_out}");

    // The shutdown drains the daemon; its exit report must agree with a
    // fresh replay of its own WAL, byte for byte on the final: line.
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let daemon_out = String::from_utf8_lossy(&out.stdout).to_string();
    let daemon_final = daemon_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {daemon_out}"));
    assert!(daemon_out.contains("daemon: drained after"), "{daemon_out}");

    let out = pbdmm(&["replay", wal.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay_out = String::from_utf8_lossy(&out.stdout).to_string();
    let replay_final = replay_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {replay_out}"));
    assert_eq!(daemon_final, replay_final);
    assert!(replay_out.contains("invariants: ok"), "{replay_out}");
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn serve_with_checkpoints_and_dir_replay_recover_identically() {
    let dir = tmpfile("serve_ckpt.waldir");
    std::fs::remove_dir_all(&dir).ok();
    let out = pbdmm(&[
        "serve",
        "--producers",
        "2",
        "--updates",
        "600",
        "--max-batch",
        "128",
        "--seed",
        "9",
        "--wal",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "200",
        "--compare",
        "none",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let served_final = stdout
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("serve prints a final state line")
        .to_string();
    assert!(served_final.contains("epoch=1200"), "{served_final}");
    // The run was long enough to rotate: segments and checkpoints exist.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".ckpt")),
        "no checkpoint written in {names:?}"
    );

    // Directory replay recovers from the newest checkpoint — and says so.
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ckpt_out = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        ckpt_out.contains("recovery: from checkpoint at batch"),
        "{ckpt_out}"
    );
    let ckpt_final = ckpt_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .expect("dir replay prints a final state line")
        .to_string();
    assert_eq!(served_final, ckpt_final, "{ckpt_out}");
    assert!(ckpt_out.contains("invariants: ok"), "{ckpt_out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_restart_recovers_from_segment_directory() {
    let dir = tmpfile("daemon_ckpt.waldir");
    std::fs::remove_dir_all(&dir).ok();

    // Run 1: fresh WAL directory, some load, graceful shutdown.
    let (child, addr, preamble) = spawn_daemon(&[
        "--wal",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "50",
        "--seed",
        "11",
    ]);
    assert!(
        !preamble.contains("daemon: recovered"),
        "fresh dir must not recover: {preamble:?}"
    );
    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "2",
        "--updates",
        "150",
        "--seed",
        "11",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run1 = String::from_utf8_lossy(&out.stdout).to_string();
    let run1_final = run1
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {run1}"));

    // Run 2: pointing --wal at the existing directory recovers the run —
    // no --checkpoint-every needed.
    let (child, addr, preamble) = spawn_daemon(&["--wal", dir.to_str().unwrap(), "--seed", "11"]);
    assert!(preamble.contains("daemon: recovered "), "{preamble:?}");
    let out = pbdmm(&[
        "load",
        "--addr",
        &addr,
        "--connections",
        "1",
        "--updates",
        "50",
        "--seed",
        "12",
        "--shutdown",
        "true",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run2 = String::from_utf8_lossy(&out.stdout).to_string();

    // The restarted daemon resumed the same history: replaying the whole
    // directory reproduces run 2's final state, and its epoch advanced
    // past run 1's.
    let run2_final = run2
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {run2}"));
    assert_ne!(run1_final, run2_final);
    let out = pbdmm(&["replay", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay_out = String::from_utf8_lossy(&out.stdout).to_string();
    let replay_final = replay_out
        .lines()
        .find(|l| l.starts_with("final:"))
        .unwrap_or_else(|| panic!("no final: line in {replay_out}"));
    assert_eq!(run2_final, replay_final, "{replay_out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_flags_are_validated() {
    let out = pbdmm(&["daemon", "--port", "notaport"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected a port number"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["daemon", "--max-connections", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("must be positive"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn load_flags_are_validated() {
    // The daemon's address is mandatory, one way or the other.
    let out = pbdmm(&["load"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--addr HOST:PORT"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--addr", "127.0.0.1:1", "--port", "1"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not both"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--port", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--port 0 is invalid"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--addr", "not-an-addr"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expected HOST:PORT"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pbdmm(&["load", "--port", "9", "--connections", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("must be positive"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
