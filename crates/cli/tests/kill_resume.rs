//! A real process crash, end to end: a checkpointed `hignn-cli train`
//! child is killed (`SIGKILL` on Unix) as soon as its meta record says
//! level 1 is committed, and `--resume` then finishes to a model
//! byte-identical to an uninterrupted run's.
//!
//! The assertion holds wherever the kill lands — inside a level, between
//! a level's rename and its meta commit, or after the child finished —
//! so a fast child that exits before the kill is still a pass. The test
//! prints the `levels_done` it saw when it sent the kill (run with
//! `--nocapture` to see it).

use hignn::checkpoint::CheckpointStore;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hignn-cli"));
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// `hignn-cli train` on `edges` into `out`, plus `extra` flags.
fn train(edges: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut cmd = cli();
    cmd.arg("train").arg("--edges").arg(edges).arg("--out").arg(out);
    cmd.args(["--levels", "3", "--dim", "8", "--epochs", "2", "--threads", "2"]).args(extra);
    cmd
}

#[test]
fn killed_training_resumes_to_the_uninterrupted_model() {
    let dir = std::env::temp_dir().join(format!("hignn_kill_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (edges, clean, resumed, ckpt) =
        (dir.join("edges.tsv"), dir.join("clean.hgh"), dir.join("resumed.hgh"), dir.join("ck"));
    let ckpt_s = ckpt.to_str().unwrap();

    let status = cli()
        .arg("generate")
        .arg("--out")
        .arg(&edges)
        .args(["--scale", "0.2", "--seed", "1"])
        .status()
        .unwrap();
    assert!(status.success(), "generate: {status}");
    let status = train(&edges, &clean, &[]).status().unwrap();
    assert!(status.success(), "uninterrupted train: {status}");

    let store = CheckpointStore::create(&ckpt).unwrap();
    let mut child = train(&edges, &resumed, &["--checkpoint", ckpt_s]).spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    let landed = loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "checkpointed train failed on its own: {status}");
            break "after the child exited".to_string();
        }
        let done = store.read_meta().map_or(0, |(meta, _)| meta.levels_done);
        if done >= 1 {
            child.kill().unwrap();
            child.wait().unwrap();
            break format!("at levels_done = {done}");
        }
        assert!(Instant::now() < deadline, "level 1 never committed");
        std::thread::sleep(Duration::from_millis(1));
    };
    println!("kill landed {landed}");

    let status = train(&edges, &resumed, &["--resume", ckpt_s]).status();
    assert!(status.unwrap().success(), "resume after the kill ({landed}) failed");
    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "the model resumed after a kill {landed} differs from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
