//! The "flat" finite element input file (§5).
//!
//! "Athena reads a large 'flat' finite element mesh input file in parallel
//! (ie, each processor seeks and reads only the part of the input file
//! that it, and it alone, is responsible for)". The format here is a
//! simple self-describing text format with a byte-offset directory and
//! fixed-width records, so any record sits at a computable byte offset.
//! No reader seeks today: the directory and the padding are kept so that
//! existing files and uploads stay byte-compatible.
//! One parser reads it: [`read_flat`] from disk and [`read_flat_bytes`]
//! for the daemon's uploads. Ingest then partitions the mesh and ships
//! each rank only its share as a [`crate::MeshShard`], so a compute rank
//! never holds the global mesh even though one reader parses the file.
//!
//! Layout:
//! ```text
//! pmgmesh 1
//! kind <hex8|tet4|hex20>
//! counts <num_vertices> <num_elements>
//! offsets <vertex_section_byte> <element_section_byte>
//! <one vertex per line: x y z>
//! <one element per line: material v0 v1 ...>
//! ```
//! Every vertex and element line is padded to a fixed width.

use crate::mesh::{ElementKind, Mesh};
use pmg_geometry::Vec3;
use std::io::{BufRead, Write};
use std::path::Path;

/// Fixed record widths (bytes, including the newline).
const VERTEX_RECORD: usize = 72;
const ELEM_RECORD_PER_NODE: usize = 10;
const ELEM_RECORD_BASE: usize = 12;

fn elem_record_len(kind: ElementKind) -> usize {
    ELEM_RECORD_BASE + ELEM_RECORD_PER_NODE * kind.nodes()
}

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
    let mut buf = Vec::with_capacity(
        64 + VERTEX_RECORD * mesh.num_vertices() + elem_record_len(mesh.kind) * mesh.num_elements(),
    );
    write_flat_to(mesh, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn write_flat_to<W: Write>(mesh: &Mesh, f: &mut W) -> std::io::Result<()> {
    // Header with a placeholder offsets line of fixed width.
    let header = format!(
        "pmgmesh 1\nkind {}\ncounts {} {}\n",
        kind_name(mesh.kind),
        mesh.num_vertices(),
        mesh.num_elements()
    );
    let offsets_line_len = "offsets ".len() + 20 + 1 + 20 + 1;
    let vertex_off = header.len() + offsets_line_len;
    let elem_off = vertex_off + VERTEX_RECORD * mesh.num_vertices();
    f.write_all(header.as_bytes())?;
    f.write_all(format!("offsets {vertex_off:020} {elem_off:020}\n").as_bytes())?;

    for p in &mesh.coords {
        let line = format!("{:.17e} {:.17e} {:.17e}", p.x, p.y, p.z);
        let mut rec = vec![b' '; VERTEX_RECORD];
        rec[..line.len()].copy_from_slice(line.as_bytes());
        rec[VERTEX_RECORD - 1] = b'\n';
        f.write_all(&rec)?;
    }
    let erl = elem_record_len(mesh.kind);
    for e in 0..mesh.num_elements() {
        let mut line = format!("{:>10}", mesh.materials[e]);
        for &v in mesh.elem(e) {
            line.push_str(&format!(" {v:>9}"));
        }
        let mut rec = vec![b' '; erl];
        assert!(line.len() < erl, "element record overflow");
        rec[..line.len()].copy_from_slice(line.as_bytes());
        rec[erl - 1] = b'\n';
        f.write_all(&rec)?;
    }
    Ok(())
}

/// Parsed header of a flat file.
struct FlatHeader {
    kind: ElementKind,
    num_vertices: usize,
    num_elements: usize,
    vertex_off: u64,
    elem_off: u64,
}

fn parse_header<R: BufRead>(r: &mut R) -> std::io::Result<FlatHeader> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    if line.trim() != "pmgmesh 1" {
        return Err(bad_data("not a pmgmesh file"));
    }
    line.clear();
    r.read_line(&mut line)?;
    let kind = kind_from_name(
        line.trim()
            .strip_prefix("kind ")
            .ok_or_else(|| bad_data("kind"))?,
    )
    .ok_or_else(|| bad_data("unknown element kind"))?;
    line.clear();
    r.read_line(&mut line)?;
    let rest = line
        .trim()
        .strip_prefix("counts ")
        .ok_or_else(|| bad_data("counts"))?;
    let mut it = rest.split_whitespace();
    let num_vertices: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("nv"))?;
    let num_elements: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("ne"))?;
    line.clear();
    r.read_line(&mut line)?;
    let rest = line
        .trim()
        .strip_prefix("offsets ")
        .ok_or_else(|| bad_data("offsets"))?;
    let mut it = rest.split_whitespace();
    let vertex_off: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("voff"))?;
    let elem_off: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("eoff"))?;
    Ok(FlatHeader {
        kind,
        num_vertices,
        num_elements,
        vertex_off,
        elem_off,
    })
}

fn bad_data(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string())
}

/// Byte length of `n` records of `width` bytes, if `buf` holds them (a
/// count from the header may be hostile, so the product is checked).
fn section_len(buf: &[u8], width: usize, n: usize) -> Option<usize> {
    width.checked_mul(n).filter(|&len| len <= buf.len())
}

/// Parse `n` fixed-width vertex records from `buf`.
fn parse_vertices(buf: &[u8], n: usize) -> std::io::Result<Vec<Vec3>> {
    let len =
        section_len(buf, VERTEX_RECORD, n).ok_or_else(|| bad_data("truncated vertex section"))?;
    let mut coords = Vec::with_capacity(n);
    for rec in buf[..len].chunks(VERTEX_RECORD) {
        let s = std::str::from_utf8(rec).map_err(|_| bad_data("utf8"))?;
        let mut it = s.split_whitespace();
        let x: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("x"))?;
        let y: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("y"))?;
        let z: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("z"))?;
        coords.push(Vec3::new(x, y, z));
    }
    Ok(coords)
}

/// Parse `n` fixed-width element records from `buf`.
fn parse_elems(buf: &[u8], kind: ElementKind, n: usize) -> std::io::Result<(Vec<u32>, Vec<u32>)> {
    let erl = elem_record_len(kind);
    let len = section_len(buf, erl, n).ok_or_else(|| bad_data("truncated element section"))?;
    let mut elem_verts = Vec::with_capacity(n * kind.nodes());
    let mut materials = Vec::with_capacity(n);
    for rec in buf[..len].chunks(erl) {
        let s = std::str::from_utf8(rec).map_err(|_| bad_data("utf8"))?;
        let mut it = s.split_whitespace();
        materials.push(
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_data("mat"))?,
        );
        for _ in 0..kind.nodes() {
            elem_verts.push(
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad_data("v"))?,
            );
        }
    }
    Ok((elem_verts, materials))
}

/// Parse a whole mesh from an in-memory flat-file image (the serve
/// `ingest` path: uploaded bytes, never touching the filesystem).
pub fn read_flat_bytes(bytes: &[u8]) -> std::io::Result<Mesh> {
    let mut cur = std::io::Cursor::new(bytes);
    let header = parse_header(&mut cur)?;
    let voff = header.vertex_off as usize;
    let eoff = header.elem_off as usize;
    if voff > bytes.len() || eoff > bytes.len() {
        return Err(bad_data("section offsets past end of buffer"));
    }
    let coords = parse_vertices(&bytes[voff..], header.num_vertices)?;
    let (elem_verts, materials) = parse_elems(&bytes[eoff..], header.kind, header.num_elements)?;
    if elem_verts.iter().any(|&v| v as usize >= coords.len()) {
        return Err(bad_data("element vertex id out of range"));
    }
    Ok(Mesh::new(coords, header.kind, elem_verts, materials))
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
        let mut bytes = write_flat_bytes(&m);
        // Element 0's first vertex field (after the 10-wide material and
        // a space) cites vertex n, one past the last.
        let header = parse_header(&mut std::io::Cursor::new(&bytes)).unwrap();
        let field = header.elem_off as usize + 11;
        let bad = format!("{:>9}", m.num_vertices());
        bytes[field..field + 9].copy_from_slice(bad.as_bytes());
        let path = tmp("bad_vertex");
        std::fs::write(&path, &bytes).unwrap();
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
        assert!(read_flat_bytes(&bytes[..bytes.len() - 40]).is_err());
        assert!(read_flat_bytes(b"not a mesh\n").is_err());
        // A count whose section length overflows (72 · 2^61 wraps to 0) is
        // an error, not a capacity panic.
        let text = String::from_utf8(bytes).unwrap();
        let huge = text.replacen("counts 27 8", &format!("counts {} 8", 1u64 << 61), 1);
        let err = read_flat_bytes(huge.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
