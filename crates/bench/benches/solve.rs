//! End-to-end solve benchmarks: the spheres first linear solve (the unit
//! of the paper's Figure 10 left), hierarchy construction ("mesh setup"),
//! and the matrix-setup-only update path used inside Newton.

use criterion::{criterion_group, criterion_main, Criterion};
use pmg_bench::{paper_options, spheres_first_solve};
use prometheus::Prometheus;

fn bench_first_solve(c: &mut Criterion) {
    let sys = spheres_first_solve(1);
    let mut grp = c.benchmark_group("spheres_k1");
    grp.sample_size(10);
    grp.bench_function("hierarchy_build", |b| {
        b.iter(|| Prometheus::from_mesh(&sys.mesh, &sys.matrix, paper_options(1)))
    });
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, paper_options(1));
    grp.bench_function("matrix_setup_update", |b| {
        b.iter(|| solver.update_matrix(&sys.matrix))
    });
    grp.bench_function("first_linear_solve", |b| {
        b.iter(|| {
            let (_, res) = solver.solve(&sys.rhs, None, 1e-4);
            assert!(res.converged);
        })
    });
    grp.finish();
}

criterion_group!(solve, bench_first_solve);
criterion_main!(solve);
