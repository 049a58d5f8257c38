// Package core implements the paper's primary contribution: the Clique
// Enumerator (Zhang et al., SC 2005, Section 2.3).  It enumerates all
// maximal cliques of an undirected graph in non-decreasing order of size,
// optionally restricted to a size range, using the sub-list + bitmap
// representation that makes the algorithm both memory-frugal and
// trivially parallel:
//
//   - Candidate k-cliques sharing a (k-1)-clique prefix form a *sub-list*:
//     the prefix is stored once, with the array of tail vertices (each
//     tail extends the prefix to one k-clique; tails are in canonical
//     order and exceed the prefix's last vertex).  A level keeps its
//     sub-lists front-coded: of a prefix, only what differs from the
//     sub-list before it (block.go).  The paper keeps the prefix's
//     common-neighbor bitmap beside it too; the join rebuilds it instead,
//     from a memo of the prefix before, and counts the rebuild apart
//     (Cost.Rebuild), so the paper's stored machine is Units − Rebuild.
//   - (k+1)-cliques are generated by joining tail pairs within a single
//     sub-list; no cross-sub-list interaction ever occurs, which is the
//     independence the multithreaded implementation exploits.
//   - A freshly generated clique is maximal iff its common-neighbor
//     bitmap — one AND against the new tail's adjacency row — has no bit
//     set (BitOneExists).  Maximal cliques are reported immediately;
//     non-maximal ones become next-level candidates only if their
//     sub-list retains more than one clique.
//   - Every vertex a sub-list can reach — its tails, every clique that
//     extends it, every common neighbour — lies in N(p0), p0 its
//     prefix's first vertex, and sub-lists that share p0 are contiguous.
//     So the one join kernel (Builder.ProcessSubList) runs those ANDs on
//     the rows of G[N(p0)], ⌈deg(p0)/64⌉ words instead of ⌈n/64⌉, each
//     built the first time its p0 group touches the vertex, whatever the
//     graph's representation (local.go).
//     Cost still charges ⌈n/64⌉ words a row, the paper's machine.
//   - A level is released at its step boundary, once the whole next
//     level has been generated from it, so two levels are resident at the
//     peak — the paper's "keeps only the candidate k-cliques" memory
//     discipline at level granularity.  The paper goes further and
//     deletes a sub-list "as soon as its successors are generated";
//     retiring consumed blocks before the step boundary is the follow-up
//     to the block store (block.go).  On the paper's graph C at scale
//     0.75 it would take the sequential peak from 4.9 MB to about 2.9 MB,
//     but the hybrid benchmark budgets a quarter of that peak while the
//     0.59 MB graph charge is fixed, which would leave that workload
//     0.13 MB of headroom and (measured by shrinking today's budget to
//     the same fraction) cost it 10-17 % of its wall time — it gets its
//     own change and its own measurement.
package core

// Vertex indices are stored as uint32 inside sub-lists: the paper's
// memory-accounting formula charges c bytes per vertex index, and c = 4
// halves candidate storage relative to Go's native int.
const vertexBytes = 4

// pointerBytes is the per-sub-list pointer overhead in the paper's
// space formula ("N[k]*sizeof(pointers) more bytes").
const pointerBytes = 8

// SubList is one candidate k-clique sub-list as the join kernel sees it:
// a view of a record of a level block (Iter) — an in-core level's, or one
// the on-disk join packed from a shard file — valid until its source
// yields the next one.
type SubList struct {
	// Prefix is the shared (k-1)-clique, strictly increasing.
	Prefix []uint32
	// Tails holds the k-th vertex of each clique in the sub-list,
	// strictly increasing, every element greater than the prefix's last
	// vertex.
	Tails []uint32
	// LCP is a lower bound on the number of leading vertices Prefix
	// shares with the prefix of the sub-list the same consumer was handed
	// just before: the record's stored lcp.  0 claims nothing and is
	// always safe: the kernel rebuilds the prefix's row from scratch; a
	// positive value lets it reuse the memo's rows below it, and Cost
	// charges only the rest.
	LCP int
}

// CNMode and CNStore name the stored-bitmap policy the library no longer
// has: the paper's machine that keeps each prefix's common-neighbour
// bitmap is a count now (Cost.Rebuild).  They stay, with NewBuilderMode,
// SeedFromKMode and SeedFromKParallel, only because the frozen benchmark
// module compiles against them; every one ignores the mode.
type CNMode int

// CNStore is the stored-bitmap policy's old name; see CNMode.
const CNStore CNMode = 1
