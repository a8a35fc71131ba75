//! Compressed sparse row (CSR) adjacency storage.
//!
//! The admissibility engine walks predecessor lists, read requirements and
//! write sets for every DFS node. Storing them as `Vec<Vec<_>>` scatters
//! each row in its own heap allocation; a [`Csr`] packs all rows into one
//! arena (`data`) indexed by an offsets table, so row access is a pair of
//! loads with no pointer chasing. Rows are appended straight into the
//! arena ([`Csr::push_row`]), so a CSR sized up front costs two
//! allocations however many rows it holds.

/// Rows of `T` packed back-to-back, addressed through an offsets table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty CSR with room for `rows` rows holding `items` items in
    /// all; [`Csr::push_row`] appends them.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            data: Vec::with_capacity(items),
        }
    }

    /// Appends a row holding `items`, in order.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        self.data.extend(items);
        let end = u32::try_from(self.data.len()).expect("CSR arena fits in u32 offsets");
        self.offsets.push(end);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.data[lo..hi]
    }
}

/// Builds the predecessor CSR of a digraph on `n` vertices from an edge
/// iterator. Edge `(from, to)` contributes `from` to `to`'s row.
pub fn predecessor_csr(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Csr<u32> {
    let mut counts = vec![0u32; n];
    for (_, to) in edges.clone() {
        counts[to as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in &counts {
        acc += c;
        offsets.push(acc);
    }
    let mut data = vec![0u32; acc as usize];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (from, to) in edges {
        let slot = cursor[to as usize];
        data[slot as usize] = from;
        cursor[to as usize] += 1;
    }
    Csr { offsets, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The constructor this module used to offer, kept as the reference:
    /// each row collected into a vector of its own, then copied over.
    fn from_fn<T>(n: usize, mut row: impl FnMut(usize) -> Vec<T>) -> Csr<T> {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut data = Vec::new();
        offsets.push(0);
        for i in 0..n {
            data.extend(row(i));
            let end = u32::try_from(data.len()).expect("CSR arena fits in u32 offsets");
            offsets.push(end);
        }
        Csr { offsets, data }
    }

    #[test]
    fn push_row_packs_rows() {
        let mut c = Csr::with_capacity(3, 3);
        (0..3).for_each(|i| c.push_row(vec![i as u32; i]));
        assert_eq!(c.row(0), &[] as &[u32]);
        assert_eq!(c.row(1), &[1]);
        assert_eq!(c.row(2), &[2, 2]);
        assert_eq!((c.offsets.len(), c.data.len()), (4, 3));
    }

    /// Rows appended in place against per-row vectors and the reference
    /// built from them, with the capacity guessed right, short and zero:
    /// empty rows, long rows, pairs as items.
    #[test]
    fn push_row_equals_per_row_vectors() {
        let mut state = 0x6373_725f_726f_7773u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for case in 0..200 {
            let n = next(70);
            let rows: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|_| {
                    let len = [0, 1, 3, 40][next(4)];
                    (0..next(len + 1))
                        .map(|_| (next(9) as u32, next(99) as u32))
                        .collect()
                })
                .collect();
            let items: usize = rows.iter().map(Vec::len).sum();
            let mut c = Csr::with_capacity(n, [items, items / 2, 0][case % 3]);
            rows.iter().for_each(|row| c.push_row(row.iter().copied()));
            assert_eq!(c, from_fn(n, |i| rows[i].clone()), "case {case}");
            assert_eq!(
                (c.offsets.len(), c.data.len()),
                (n + 1, items),
                "case {case}"
            );
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(c.row(i), row.as_slice(), "case {case}, row {i}");
            }
        }
    }

    #[test]
    fn predecessor_csr_groups_by_target() {
        let edges = [(0u32, 2u32), (1, 2), (2, 0)];
        let c = predecessor_csr(3, edges.iter().copied());
        assert_eq!(c.row(0), &[2]);
        assert_eq!(c.row(1), &[] as &[u32]);
        let mut r2 = c.row(2).to_vec();
        r2.sort_unstable();
        assert_eq!(r2, vec![0, 1]);
    }
}
