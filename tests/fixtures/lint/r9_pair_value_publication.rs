//@ path: crates/core/src/fixture_r9_pair.rs
//@ expect: R9@5

fn claim(dev: &Device, slot: u32, key: u32, value: u32) {
    dev.launch_warps("map_claim", 1, |warp| {
        warp.atomic_cas(slot + PAIR_LANE, EMPTY_KEY, key);
        warp.write_word(slot + PAIR_LANE + 1, value);
    });
}

fn lookup(g: &DynGraph, pin: &ReadGuard, slot: u32) {
    g.dev.launch_warps("map_lookup", 1, |warp| {
        let _ = warp.read_word(slot + PAIR_LANE + 1);
    });
}
