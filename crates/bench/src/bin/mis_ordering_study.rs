//! §4.7 study: MIS density under natural vs random vertex ordering.
//!
//! "For a uniform 3D hexahedral mesh, the asymptotics of the ratio of the
//! MIS size to the vertex set size is bounded by 1/2³ and 1/3³ — natural
//! and random orderings are simple heuristics to approach these bounds."
//! The MIS runs on the element-connectivity graph (vertices adjacent iff
//! they share a hex), i.e. the 26-neighbor graph.
//!
//! Usage: `mis_ordering_study [sizes...]` (default 8 12 16 20).

use pmg_mesh::generators::cube;
use prometheus::{greedy_mis, MisOrdering};

fn main() {
    let sizes: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        if args.is_empty() {
            vec![8, 12, 16, 20]
        } else {
            args
        }
    };
    println!("# §4.7 MIS ordering study (bounds: 1/8 = 0.125 .. 1/27 = 0.037)");
    println!(
        "{:>6} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "n", "vertices", "natural", "1/ratio", "random", "1/ratio"
    );
    for n in sizes {
        let mesh = cube(n);
        let g = mesh.vertex_graph();
        let nv = mesh.num_vertices();
        let rank = vec![0u8; nv];
        let run = |ordering: MisOrdering| {
            let order = ordering.order(&g, &rank);
            greedy_mis(&g, &order).iter().filter(|&&s| s).count()
        };
        let nat = run(MisOrdering::Natural);
        let rnd = run(MisOrdering::Random(12345));
        println!(
            "{:>6} {:>9} | {:>9} {:>9.1} | {:>9} {:>9.1}",
            n,
            nv,
            nat,
            nv as f64 / nat as f64,
            rnd,
            nv as f64 / rnd as f64,
        );
        assert!(nat >= rnd, "natural ordering must be denser");
        // Both within the paper's asymptotic bounds (with finite-size slack).
        for (label, count) in [("natural", nat), ("random", rnd)] {
            let frac = count as f64 / nv as f64;
            assert!(
                frac > 1.0 / 40.0 && frac < 1.0 / 5.0,
                "{label} fraction {frac} outside plausible range"
            );
        }
    }
    println!("\n(natural orderings give dense MISs near 1/8; random near 1/27 — paper §4.7)");
}
