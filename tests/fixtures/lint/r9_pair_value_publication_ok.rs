//@ path: crates/core/src/fixture_r9_pair.rs
//@ expect-clean

fn claim(dev: &Device, slot: u32, key: u32, value: u32) {
    dev.launch_warps("map_claim", 1, |warp| {
        let seen = warp.read_word(slot + PAIR_LANE + 1);
        warp.atomic_cas_pair(slot + PAIR_LANE, [EMPTY_KEY, seen], [key, value]);
    });
}

fn lookup(g: &DynGraph, pin: &ReadGuard, slot: u32) {
    g.dev.launch_warps("map_lookup", 1, |warp| {
        let _ = warp.read_word(slot + PAIR_LANE + 1);
    });
}
