//! Failure injection: the harness must fail loudly and precisely, never
//! silently produce wrong numbers.

use rnnasip_core::{CoreError, KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::{Act, FcLayer, Matrix};
use rnnasip_rrm::{seeded_fc_layer, seeded_input};

#[test]
fn wrong_input_length_is_a_shape_error() {
    let layer = seeded_fc_layer(8, 4, 1);
    let err = KernelBackend::new(OptLevel::IfmTile)
        .run_fc(&layer, &[Q3p12::ZERO; 3])
        .unwrap_err();
    assert!(matches!(err, CoreError::Shape(_)), "{err}");
}

#[test]
fn tiny_memory_reports_out_of_memory() {
    // 2100 inputs x 1024 outputs of Q3.12 weights are 4.3 MB: more than
    // the whole 4 MiB TCDM the compiler lays data out in.
    let layer = seeded_fc_layer(2100, 1024, 2);
    let input = seeded_input(2100, 3);
    let err = KernelBackend::new(OptLevel::IfmTile)
        .run_fc(&layer, &input)
        .unwrap_err();
    match err {
        CoreError::OutOfMemory { needed, capacity } => {
            assert_eq!(capacity, 4 << 20);
            assert!(needed > capacity, "{needed} <= {capacity}");
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
}

#[test]
fn exhausted_watchdog_reports_sim_error() {
    let layer = seeded_fc_layer(64, 64, 2);
    let input = seeded_input(64, 3);
    let err = KernelBackend::new(OptLevel::Baseline)
        .with_max_cycles(100)
        .run_fc(&layer, &input)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Sim(rnnasip_sim::SimError::Watchdog { .. })),
        "{err}"
    );
}

#[test]
fn odd_lstm_width_is_rejected_with_context() {
    use rnnasip_nn::LstmLayer;
    let m = 3; // odd input width: unsupported
    let n = 4;
    let z_nm = Matrix::zeros(n, m);
    let z_nn = Matrix::zeros(n, n);
    let layer = LstmLayer::new(
        [z_nm.clone(), z_nm.clone(), z_nm.clone(), z_nm],
        [z_nn.clone(), z_nn.clone(), z_nn.clone(), z_nn],
        [
            vec![Q3p12::ZERO; n],
            vec![Q3p12::ZERO; n],
            vec![Q3p12::ZERO; n],
            vec![Q3p12::ZERO; n],
        ],
    );
    let seq = vec![vec![Q3p12::ZERO; m]; 2];
    let err = KernelBackend::new(OptLevel::IfmTile)
        .run_lstm(&layer, &seq)
        .unwrap_err();
    match err {
        CoreError::Shape(msg) => assert!(msg.contains("even"), "{msg}"),
        other => panic!("expected shape error, got {other}"),
    }
}

#[test]
fn empty_layer_rejected() {
    // A zero-output layer cannot be constructed through FcLayer (its
    // Matrix would be empty but valid); the kernel must reject it.
    let layer = FcLayer::new(Matrix::zeros(0, 4), vec![], Act::None);
    let err = KernelBackend::new(OptLevel::Xpulp)
        .run_fc(&layer, &[Q3p12::ZERO; 4])
        .unwrap_err();
    assert!(matches!(err, CoreError::Shape(_)), "{err}");
}

#[test]
fn compile_fc_exposes_code_size_tradeoff() {
    let layer = seeded_fc_layer(64, 60, 5);
    let base = KernelBackend::new(OptLevel::Baseline)
        .compile_fc(&layer)
        .expect("compiles");
    let tiled = KernelBackend::new(OptLevel::IfmTile)
        .compile_fc(&layer)
        .expect("compiles");
    // The baseline is a compact loop; the tiled kernel unrolls per-tile
    // code (pointer setup + requant per output).
    assert!(
        tiled.code_size() > 2 * base.code_size(),
        "tiled {} vs baseline {}",
        tiled.code_size(),
        base.code_size()
    );
    // Both end with the halt.
    let last = |p: &rnnasip_sim::Program| p.iter().last().map(|i| i.instr);
    assert_eq!(last(&base), Some(rnnasip_isa::Instr::Ecall));
    assert_eq!(last(&tiled), Some(rnnasip_isa::Instr::Ecall));
}
