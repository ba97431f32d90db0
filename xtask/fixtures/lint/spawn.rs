//! Seeded violations for rule family (e): the bare-`thread::spawn` ban.
//! This file is test data, never compiled into any crate.

fn rogue_spawn() {
    let handle = thread::spawn(|| heavy_work());
    handle.join().unwrap(); // xtask-allow: fixture, not first-party code
}

fn rogue_builder() {
    let b = thread::Builder::new();
    thread::scope(|s| s.spawn(|| heavy_work()).join());
}
