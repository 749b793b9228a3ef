//! Hierarchy inspection helpers (the paper's Figure 7 view): build the
//! coarsening ladder of a mesh and report per-level statistics, plus a
//! Wavefront OBJ export of each coarse tetrahedral grid.

use crate::classify::{classify_mesh, VertexClass};
use crate::coarsen::{coarsen_level, CoarsenOptions};
use crate::mg::MgOptions;
use pmg_geometry::Vec3;
use pmg_mesh::Mesh;

/// Statistics of one grid in the coarsening ladder.
pub struct LevelInfo {
    /// Vertex coordinates of this grid.
    pub coords: Vec<Vec3>,
    /// Vertices on this grid.
    pub vertices: usize,
    /// Elements on this grid.
    pub elements: usize,
    /// Fine vertices that fell back to nearest-vertex interpolation when
    /// this grid was built (0 on the fine grid).
    pub lost: usize,
    /// Interior-classified vertices.
    pub interior: usize,
    /// Surface-classified vertices.
    pub surface: usize,
    /// Edge-classified vertices.
    pub edge: usize,
    /// Corner-classified vertices.
    pub corner: usize,
    /// OBJ model of the grid (coarse tet grids only).
    pub obj: Option<String>,
}

/// Coarsen `mesh` up to `max_levels` times and report each grid.
pub fn classify_mesh_levels(
    mesh: &Mesh,
    opts: &CoarsenOptions,
    max_levels: usize,
) -> Vec<LevelInfo> {
    let mut out = Vec::new();
    let classes = classify_mesh(mesh, opts.face_tol);
    out.push(LevelInfo {
        coords: mesh.coords.clone(),
        vertices: mesh.num_vertices(),
        elements: mesh.num_elements(),
        lost: 0,
        interior: classes.count(VertexClass::Interior),
        surface: classes.count(VertexClass::Surface),
        edge: classes.count(VertexClass::Edge),
        corner: classes.count(VertexClass::Corner),
        obj: None,
    });

    let mut coords = mesh.coords.clone();
    let mut graph = mesh.vertex_graph();
    let mut cls = classes;
    // The solver's level schedule, minus the size below which it would
    // rather solve directly.
    let schedule = MgOptions {
        max_levels,
        coarse_dof_threshold: 0,
        coarsen: *opts,
        ..Default::default()
    };
    for level in 0.. {
        let nv = coords.len();
        let Some(o) = schedule.level_coarsen_options(level, opts.nproc, nv, nv) else {
            break;
        };
        let lvl = coarsen_level(&coords, &graph, &cls, &o);
        if lvl.stalled(nv) {
            break;
        }
        out.push(LevelInfo {
            coords: lvl.coords.clone(),
            vertices: lvl.selected.len(),
            elements: lvl.tets.len(),
            lost: lvl.lost_vertices,
            interior: lvl.classes.count(VertexClass::Interior),
            surface: lvl.classes.count(VertexClass::Surface),
            edge: lvl.classes.count(VertexClass::Edge),
            corner: lvl.classes.count(VertexClass::Corner),
            obj: Some(tets_to_obj(&lvl.coords, &lvl.tets)),
        });
        coords = lvl.coords;
        graph = lvl.graph;
        cls = lvl.classes;
    }
    out
}

/// Wavefront OBJ of a tetrahedral grid (all four faces of every tet).
pub fn tets_to_obj(coords: &[Vec3], tets: &[[u32; 4]]) -> String {
    let mut s = String::with_capacity(coords.len() * 32 + tets.len() * 64);
    for p in coords {
        s.push_str(&format!("v {} {} {}\n", p.x, p.y, p.z));
    }
    // Positive-volume tet faces (outward): see ElementKind::Tet4.
    const FACES: [[usize; 3]; 4] = [[0, 2, 1], [0, 3, 2], [0, 1, 3], [1, 2, 3]];
    for t in tets {
        for f in FACES {
            // OBJ indices are 1-based.
            s.push_str(&format!(
                "f {} {} {}\n",
                t[f[0]] + 1,
                t[f[1]] + 1,
                t[f[2]] + 1
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_mesh::generators::cube;

    #[test]
    fn ladder_reports_levels() {
        let m = cube(5);
        let info = classify_mesh_levels(&m, &CoarsenOptions::default(), 4);
        assert!(info.len() >= 2);
        assert_eq!(info[0].vertices, 216);
        assert_eq!(info[0].corner, 8);
        for w in info.windows(2) {
            assert!(w[1].vertices < w[0].vertices);
        }
        // Class counts partition the vertex set.
        for l in &info {
            assert_eq!(l.interior + l.surface + l.edge + l.corner, l.vertices);
        }
    }

    #[test]
    fn obj_export_format() {
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let obj = tets_to_obj(&coords, &[[0, 1, 2, 3]]);
        assert_eq!(
            obj.matches("\nf ").count() + usize::from(obj.starts_with("f ")),
            4
        );
        assert_eq!(obj.matches("v ").count(), 4);
        assert!(obj.contains("f 1 3 2"));
    }
}
