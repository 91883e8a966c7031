//! Seeded inputs are built during set-up, never inside a timed region:
//! a lazily built trace (the old `serving_throughput` `OnceLock` bug)
//! would put its generation into the first measurement.
//!
//! This file holds one test so no other test generates inputs in the
//! same process while it counts.

use flexbench::inputs::generated_elems;
use flexbench::workloads::{setup, NAMES};
use std::time::Duration;

#[test]
fn measured_phases_generate_no_inputs() {
    for name in NAMES {
        let before_setup = generated_elems();
        let mut workload = setup(name, 42).expect("a known workload");
        let after_setup = generated_elems();
        assert!(after_setup > before_setup, "{name}: set-up made its inputs");
        for trace in [false, true] {
            let phase = workload.run(Duration::from_millis(300), trace);
            assert!(phase.tally.attempted > 0, "{name}: the phase ran");
            assert_eq!(phase.tally.failed(), 0, "{name}: every operation verified");
            assert_eq!(
                generated_elems(),
                after_setup,
                "{name} (trace {trace}): a measured phase generated inputs"
            );
        }
    }
}
