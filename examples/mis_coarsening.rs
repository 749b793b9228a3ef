//! Inspect the automatic coarsening pipeline (the paper's Figure 7 view):
//! vertex classification, MIS selection under different orderings, the
//! Delaunay remesh, and the resulting grid hierarchy of the spheres
//! problem.
//!
//! Run with: `cargo run --release --example mis_coarsening`

use prometheus_repro::mesh::{sphere_in_cube, SpheresParams};
use prometheus_repro::partition::Graph;
use prometheus_repro::solver::{
    classify_vertices, coarsen_level, greedy_mis, identify_faces, modified_mis_graph,
    CoarsenOptions, MisOrdering, VertexClass,
};

fn class_histogram(classes: &prometheus_repro::solver::VertexClasses) -> String {
    format!(
        "interior {:>6}  surface {:>6}  edge {:>5}  corner {:>5}",
        classes.count(VertexClass::Interior),
        classes.count(VertexClass::Surface),
        classes.count(VertexClass::Edge),
        classes.count(VertexClass::Corner),
    )
}

fn main() {
    // §4.7 study: MIS density under natural vs random ordering on a
    // uniform hex mesh (bounds 1/8 .. 1/27 of the vertex count).
    println!("=== MIS ordering study (uniform 16^3-element cube, §4.7) ===");
    let cube = prometheus_repro::mesh::generators::cube(16);
    let g = cube.vertex_graph();
    let n = cube.num_vertices();
    for (name, ordering) in [
        ("natural", MisOrdering::Natural),
        ("random ", MisOrdering::Random(7)),
    ] {
        let order = ordering.order(&g, &vec![0u8; n]);
        let sel = greedy_mis(&g, &order);
        let ns = sel.iter().filter(|&&s| s).count();
        println!(
            "  {name} ordering: MIS {ns:>5} of {n} = 1/{:.1}   (bounds: 1/8 .. 1/27)",
            n as f64 / ns as f64
        );
    }

    // Face identification and classification on the spheres problem.
    println!("\n=== concentric spheres: classification and coarsening ===");
    let params = SpheresParams::tiny();
    let mesh = sphere_in_cube(&params);
    let facets = prometheus_repro::mesh::boundary_facets(&mesh);
    let adj = prometheus_repro::mesh::facet_adjacency(&facets);
    let ids = identify_faces(&facets, &adj, 0.7);
    let nfaces = {
        let mut u = ids.clone();
        u.sort_unstable();
        u.dedup();
        u.len()
    };
    println!(
        "fine grid: {} vertices, {} boundary facets grouped into {} faces (TOL=0.7)",
        mesh.num_vertices(),
        facets.len(),
        nfaces
    );
    let classes = classify_vertices(mesh.num_vertices(), &facets, &ids);
    println!("  classes: {}", class_histogram(&classes));

    // The modified MIS graph (§4.6).
    let graph = mesh.vertex_graph();
    let modified = modified_mis_graph(&graph, &classes);
    println!(
        "  MIS graph: {} edges -> {} after the §4.6 modification",
        graph.num_edges(),
        modified.num_edges()
    );

    // Recursive coarsening: the grids of Figure 7.
    println!("\nlevel  vertices   tets    lost   classes");
    let mut coords = mesh.coords.clone();
    let mut g: Graph = graph;
    let mut cls = classes;
    println!(
        "{:>5} {:>9} {:>6} {:>6}   {}",
        0,
        coords.len(),
        mesh.num_elements(),
        "-",
        class_histogram(&cls)
    );
    for level in 1..6 {
        if coords.len() < 30 {
            break;
        }
        let opts = CoarsenOptions {
            reclassify: level >= 2,
            ..Default::default()
        };
        let lvl = coarsen_level(&coords, &g, &cls, &opts);
        println!(
            "{:>5} {:>9} {:>6} {:>6}   {}",
            level,
            lvl.selected.len(),
            lvl.tets.len(),
            lvl.lost_vertices,
            class_histogram(&lvl.classes)
        );
        coords = lvl.coords;
        g = lvl.graph;
        cls = lvl.classes;
    }
}
