//! The baseline levels' inner loops are dot-product loops the micro-op
//! translator recognizes by dataflow: the level-a software MAC loop
//! (`lh, lh, lw, addi, mac, sw, addi, bltu`) and the level-b
//! `p.lw!, p.lw!, pv.sdotsp.h` hardware-loop body. A kernel change that
//! breaks either shape silently sends those levels back to per-op
//! interpretation; this pins that every suite network keeps at least one.

use rnnasip_core::{KernelBackend, OptLevel};

#[test]
fn every_level_a_and_b_suite_program_has_a_dot_loop() {
    for level in [OptLevel::Baseline, OptLevel::Xpulp] {
        for net in rnnasip_rrm::suite() {
            let compiled = KernelBackend::new(level)
                .compile_network(&net.network)
                .unwrap_or_else(|e| panic!("{} level {}: {e}", net.id, level.tag()));
            assert!(
                compiled.uop_program().dot_loops() > 0,
                "{} level {}: no dot loop recognized",
                net.id,
                level.tag()
            );
        }
    }
}
