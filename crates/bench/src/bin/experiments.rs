//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! experiments [all|table1|table2|fig1|fig5|fig6|fig7|fig8|fig9|headline|
//!              spmv2d|memory|mfix|refine|commhiding|capacity|energy|
//!              multiwafer] [--full]
//! ```
//!
//! `--full` runs the Fig. 9 precision study, Table II and the multi-wafer
//! weak-scaling table at larger scale (slower).

use wse_bench as experiments_lib;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");
    let (fig9_scale, fig9_iters) = if full { (4, 16) } else { (10, 16) };
    let (t2_n, t2_iters) = if full { (16, 4) } else { (8, 3) };
    let (mw_z, mw_iters) = if full { (256, 4) } else { (16, 2) };

    // The one list of section names: dispatch, `all`, and the usage message
    // below all read it (the usage text above repeats it for rustdoc).
    let sections: [(&str, &dyn Fn()); 17] = [
        ("fig1", &experiments_lib::print_fig1),
        ("table1", &experiments_lib::print_table1),
        ("fig5", &experiments_lib::print_fig5),
        ("fig6", &experiments_lib::print_fig6),
        ("memory", &experiments_lib::print_memory),
        ("spmv2d", &experiments_lib::print_spmv2d),
        ("headline", &experiments_lib::print_headline),
        ("fig7", &experiments_lib::print_fig7_fig8),
        // Figs. 7 and 8 are one printout, which `all` already has from fig7.
        ("fig8", &experiments_lib::print_fig7_fig8),
        ("table2", &|| experiments_lib::print_table2(t2_n, t2_iters)),
        ("fig9", &|| experiments_lib::print_fig9(fig9_scale, fig9_iters)),
        ("mfix", &experiments_lib::print_mfix),
        ("refine", &|| experiments_lib::print_refinement(fig9_scale)),
        ("commhiding", &experiments_lib::print_comm_hiding),
        ("capacity", &experiments_lib::print_capacity),
        ("energy", &experiments_lib::print_energy),
        ("multiwafer", &|| experiments_lib::print_multiwafer(mw_z, mw_iters)),
    ];

    let mut ran = false;
    for (name, run) in sections {
        if which == name || (which == "all" && name != "fig8") {
            run();
            println!();
            ran = true;
        }
    }
    if !ran {
        let names: Vec<&str> = sections.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment '{which}'; expected one of: all {}", names.join(" "));
        std::process::exit(2);
    }
}
