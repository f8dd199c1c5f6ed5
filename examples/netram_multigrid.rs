//! Network RAM: rerun Figure 2 — a multigrid solver sweeping past local
//! DRAM on three machines — and print the series plus an ASCII sketch.
//!
//! ```sh
//! cargo run --release --example netram_multigrid
//! ```

use now_mem::multigrid::{figure2_series, run, MemoryConfig};
use now_probe::Probe;

fn main() {
    // The full figure, its three curves on one thread.
    let series = figure2_series(&Probe::disabled(), 1);
    println!("problem (MB)   32MB+disk (s)   128MB local (s)   32MB+netRAM (s)");
    let sizes: Vec<f64> = series[0].1.iter().map(|(x, _)| *x).collect();
    for (i, mb) in sizes.iter().enumerate() {
        println!(
            "{:>11.0} {:>15.1} {:>17.1} {:>17.1}",
            mb, series[0].1[i].1, series[1].1[i].1, series[2].1[i].1
        );
    }

    // The paper's two claims, at one representative size.
    let mb = 96;
    let disk = run(mb, MemoryConfig::local32_disk());
    let big = run(mb, MemoryConfig::local128());
    let netram = run(mb, MemoryConfig::local32_netram());
    println!();
    println!("at {mb} MB:");
    println!(
        "  network RAM vs enough local DRAM: {:.0}% slower (paper: 10-30%)",
        (netram.slowdown_vs(&big) - 1.0) * 100.0
    );
    println!(
        "  network RAM vs thrashing to disk: {:.1}x faster (paper: 5-10x)",
        disk.slowdown_vs(&netram)
    );
    println!(
        "  fault mix with network RAM: {} netRAM faults, {} disk faults, {} soft",
        netram.pager.netram_faults, netram.pager.disk_faults, netram.pager.soft_faults
    );
    println!();
    println!(
        "Virtual memory's original promise restored: the 96-MB problem is\n\
         *runnable* on a 32-MB workstation because the building's idle DRAM\n\
         is an order of magnitude closer than the local disk (Table 2)."
    );
}
