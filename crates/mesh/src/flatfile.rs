//! The "flat" finite element input file (§5).
//!
//! "Athena reads a large 'flat' finite element mesh input file in parallel
//! (ie, each processor seeks and reads only the part of the input file
//! that it, and it alone, is responsible for)". Here one reader parses the
//! whole file — [`read_flat`] from disk, [`read_flat_bytes`] for the
//! daemon's uploads — and ingest then partitions the mesh and ships each
//! rank only its share as a [`crate::MeshShard`], so a compute rank never
//! holds the global mesh. Nothing seeks, so the records are plain lines.
//!
//! Layout:
//! ```text
//! pmgmesh 2
//! kind <hex8|tet4|hex20>
//! counts <num_vertices> <num_elements>
//! <one vertex per line: x y z>
//! <one element per line: material v0 v1 ...>
//! ```
//! Coordinates are written in the shortest form that reads back to the
//! same bits; every line, the last included, ends in a newline.

use crate::mesh::{ElementKind, Mesh};
use pmg_geometry::Vec3;
use std::io::Write;
use std::path::Path;
use std::str::FromStr;

const MAGIC: &str = "pmgmesh 2";

fn kind_name(kind: ElementKind) -> &'static str {
    match kind {
        ElementKind::Hex8 => "hex8",
        ElementKind::Tet4 => "tet4",
        ElementKind::Hex20 => "hex20",
    }
}

fn kind_from_name(s: &str) -> Option<ElementKind> {
    match s {
        "hex8" => Some(ElementKind::Hex8),
        "tet4" => Some(ElementKind::Tet4),
        "hex20" => Some(ElementKind::Hex20),
        _ => None,
    }
}

/// Write `mesh` as a flat file.
pub fn write_flat(mesh: &Mesh, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_flat_to(mesh, &mut f)?;
    f.flush()
}

/// Serialize `mesh` in the flat-file format into a byte buffer (the form
/// the serve `ingest` frame uploads — same bytes as [`write_flat`] puts on
/// disk).
pub fn write_flat_bytes(mesh: &Mesh) -> Vec<u8> {
    let mut buf = Vec::new();
    write_flat_to(mesh, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn write_flat_to<W: Write>(mesh: &Mesh, f: &mut W) -> std::io::Result<()> {
    writeln!(f, "{MAGIC}")?;
    writeln!(f, "kind {}", kind_name(mesh.kind))?;
    writeln!(f, "counts {} {}", mesh.num_vertices(), mesh.num_elements())?;
    for p in &mesh.coords {
        writeln!(f, "{:e} {:e} {:e}", p.x, p.y, p.z)?;
    }
    for e in 0..mesh.num_elements() {
        write!(f, "{}", mesh.materials[e])?;
        for &v in mesh.elem(e) {
            write!(f, " {v}")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

fn bad_data(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string())
}

/// Parse one `what` record line into exactly `out.len()`
/// whitespace-separated fields; `None` is a missing record.
fn record<T: FromStr>(line: Option<&str>, what: &str, out: &mut [T]) -> std::io::Result<()> {
    let line = line.ok_or_else(|| bad_data(&format!("missing {what} record")))?;
    let mut it = line.split_ascii_whitespace();
    for slot in out.iter_mut() {
        *slot = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data(what))?;
    }
    match it.next() {
        Some(_) => Err(bad_data(what)),
        None => Ok(()),
    }
}

/// Parse a whole mesh from an in-memory flat-file image (the serve
/// `ingest` path: uploaded bytes, never touching the filesystem).
pub fn read_flat_bytes(bytes: &[u8]) -> std::io::Result<Mesh> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad_data("utf8"))?;
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(bad_data("not a pmgmesh 2 file"));
    }
    let kind = lines
        .next()
        .and_then(|l| kind_from_name(l.strip_prefix("kind ")?.trim()))
        .ok_or_else(|| bad_data("kind"))?;
    let mut counts = [0usize; 2];
    record(
        lines.next().and_then(|l| l.strip_prefix("counts ")),
        "counts",
        &mut counts,
    )?;
    let [nv, ne] = counts;
    let nodes = kind.nodes();
    // A record needs two bytes per field ("0 0 0\n"), so counts the bytes
    // cannot hold are refused before anything is allocated for them. A
    // buffer cut inside its last line would parse a shortened number, so
    // every line must end in its newline.
    let least = nv
        .checked_mul(6)
        .zip(ne.checked_mul(2 * (nodes + 1)))
        .and_then(|(v, e)| v.checked_add(e));
    if least.is_none_or(|least| least > bytes.len()) || !text.ends_with('\n') {
        return Err(bad_data("truncated mesh"));
    }
    let mut coords = Vec::with_capacity(nv);
    let mut xyz = [0.0; 3];
    for _ in 0..nv {
        record(lines.next(), "vertex", &mut xyz)?;
        coords.push(Vec3::new(xyz[0], xyz[1], xyz[2]));
    }
    let mut elem_verts = Vec::with_capacity(ne * nodes);
    let mut materials = Vec::with_capacity(ne);
    let mut fields = vec![0u32; 1 + nodes];
    for _ in 0..ne {
        record(lines.next(), "element", &mut fields)?;
        if fields[1..].iter().any(|&v| v as usize >= nv) {
            return Err(bad_data("element vertex id out of range"));
        }
        materials.push(fields[0]);
        elem_verts.extend_from_slice(&fields[1..]);
    }
    Ok(Mesh::new(coords, kind, elem_verts, materials))
}

/// Read a whole flat file (the same parser as [`read_flat_bytes`]).
pub fn read_flat(path: &Path) -> std::io::Result<Mesh> {
    read_flat_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{block, block20};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pmg_flatfile_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_hex8() {
        let m = block(3, 2, 2, Vec3::new(3.0, 2.0, 2.0), |c| u32::from(c.x > 1.5));
        let path = tmp("hex8");
        write_flat(&m, &path).unwrap();
        let back = read_flat(&path).unwrap();
        assert_eq!(back.kind, m.kind);
        assert_eq!(back.elem_verts, m.elem_verts);
        assert_eq!(back.materials, m.materials);
        for (a, b) in back.coords.iter().zip(&m.coords) {
            assert_eq!(a, b, "coordinates must roundtrip exactly");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_hex20() {
        let m = block20(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |_| 0);
        let path = tmp("hex20");
        write_flat(&m, &path).unwrap();
        let back = read_flat(&path).unwrap();
        assert_eq!(back.kind, ElementKind::Hex20);
        assert_eq!(back.elem_verts, m.elem_verts);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, "not a mesh\n").unwrap();
        let err = read_flat(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_out_of_range_vertex_id() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let text = String::from_utf8(write_flat_bytes(&m)).unwrap();
        // Element 0's first vertex (the field after its material) cites
        // vertex n, one past the last.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let elem0 = &mut lines[3 + m.num_vertices()];
        let mut fields: Vec<String> = elem0.split(' ').map(String::from).collect();
        fields[1] = m.num_vertices().to_string();
        *elem0 = fields.join(" ");
        let path = tmp("bad_vertex");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = read_flat(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bytes_roundtrip_matches_file_roundtrip() {
        let m = block(3, 2, 2, Vec3::new(3.0, 2.0, 2.0), |c| u32::from(c.x > 1.5));
        let bytes = write_flat_bytes(&m);
        // The in-memory image is byte-identical to what write_flat puts on
        // disk, so uploaded meshes and file meshes share one format.
        let path = tmp("bytes");
        write_flat(&m, &path).unwrap();
        assert_eq!(bytes, std::fs::read(&path).unwrap());
        std::fs::remove_file(path).ok();

        let back = read_flat_bytes(&bytes).unwrap();
        assert_eq!(back.kind, m.kind);
        assert_eq!(back.elem_verts, m.elem_verts);
        assert_eq!(back.materials, m.materials);
        for (a, b) in back.coords.iter().zip(&m.coords) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bytes_reader_rejects_truncation() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let bytes = write_flat_bytes(&m);
        let invalid = |b: &[u8]| read_flat_bytes(b).unwrap_err().kind();
        // Cut at a line boundary (a missing element), inside the last line
        // (a shortened vertex id), and not a mesh at all.
        let last_line = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&c| c == b'\n')
            .unwrap();
        for cut in [
            &bytes[..last_line + 1],
            &bytes[..bytes.len() - 1],
            b"not a mesh\n",
        ] {
            assert_eq!(invalid(cut), std::io::ErrorKind::InvalidData);
        }
        // Counts the bytes cannot hold — including one whose byte length
        // overflows (6 · 2^61 wraps) — are errors, not capacity panics.
        let text = String::from_utf8(bytes).unwrap();
        for counts in [format!("counts {} 8", 1u64 << 61), "counts 27 80".into()] {
            let huge = text.replacen("counts 27 8", &counts, 1);
            assert_eq!(invalid(huge.as_bytes()), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn extreme_coordinates_roundtrip_bit_for_bit() {
        // Every value reads back to the bits it was written from: long
        // mantissas at two-digit negative exponents, both signs, the
        // largest finite value, the smallest subnormal and negative zero.
        let coords = vec![
            Vec3::new(1.5e-10, 2.5e-10, -3.5e-10),
            Vec3::new(-1.5e-10, -2.5e-10, -3.5e-10),
            Vec3::new(f64::MAX, -f64::MAX, f64::from_bits(1)),
            Vec3::new(-f64::from_bits(1), -0.0, f64::MIN_POSITIVE),
        ];
        let m = Mesh::new(coords, ElementKind::Tet4, vec![0, 1, 2, 3], vec![7]);
        let back = read_flat_bytes(&write_flat_bytes(&m)).unwrap();
        assert_eq!(
            (&back.elem_verts, &back.materials),
            (&m.elem_verts, &m.materials)
        );
        let bits = |m: &Mesh| -> Vec<u64> {
            m.coords
                .iter()
                .flat_map(|p| [p.x, p.y, p.z])
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&back), bits(&m));
    }
}
