//@ path: crates/core/src/query.rs
//@ expect: R8@6
// A query-path launch in a function that holds no guard at all.

fn degree_scan(dev: &Device) -> u32 {
    dev.launch_warps("degree_scan", 1, |warp| {
        let _ = warp.read_word(4);
    });
    0
}
