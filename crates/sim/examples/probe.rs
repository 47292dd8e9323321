use das_sim::config::{Design, SystemConfig, DEFAULT_INSTS};
use das_sim::experiments::{improvement, run_one};
use das_workloads::spec;

fn main() {
    let mut cfg = SystemConfig::paper_scaled();
    cfg.inst_budget = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_INSTS);
    for bench in [
        "astar",
        "cactusADM",
        "GemsFDTD",
        "lbm",
        "leslie3d",
        "libquantum",
        "mcf",
        "milc",
        "omnetpp",
        "soplex",
    ] {
        let wl = vec![spec::by_name(bench)];
        let base = run_one(&cfg, Design::Standard, &wl).expect("baseline run");
        for d in [
            Design::SasDram,
            Design::DasDram,
            Design::DasDramFm,
            Design::FsDram,
        ] {
            let m = run_one(&cfg, d, &wl).expect("design run");
            let (rb, f, s) = m.access_mix.fractions();
            println!(
                "{bench:12} {:14} imp={:+6.2}% ipc={:.3} mpki={:5.1} promos={:6} ppkm={:7.1} rb/f/s={:.2}/{:.2}/{:.2} tfetch={} tc_hit={} tc_miss={}",
                m.design, improvement(&m, &base) * 100.0, m.ipc(), m.mpki(), m.promotions,
                m.ppkm(), rb, f, s, m.table_fetch_reads, m.translation.hits, m.translation.misses,
            );
        }
        let (rb, f, s) = base.access_mix.fractions();
        println!(
            "{bench:12} {:14} ipc={:.3} mpki={:5.1} rb/f/s={:.2}/{:.2}/{:.2}\n",
            base.design,
            base.ipc(),
            base.mpki(),
            rb,
            f,
            s
        );
    }
}
