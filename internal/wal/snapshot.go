package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"

	"structura/internal/graph"
)

// ErrCorrupt wraps every durable-format decode failure outside the record
// framing: corrupt superblocks, snapshots, and log headers. These files are
// fsynced before anything references them, so (unlike a torn log tail) a
// checksum mismatch here means real damage, not an interrupted write.
var ErrCorrupt = errors.New("wal: corrupt durable file")

const (
	snapMagic = "STSN"
	// snapVer 2 appends an optional label section (the durable label
	// epoch compacted out of the log) after the edge list; v1 snapshots
	// still decode, with no labels.
	snapVer    = 2
	snapVer1   = 1
	superMagic = "STSB"
	// superVer 2 adds the generation counter and fencing token; v1
	// superblocks still decode with gen = fence = 0.
	superVer  = 2
	superVer1 = 1
	logMagic  = "STWL"
	// logVer 2 added the generation number, making (gen, byte offset) a
	// globally unique position in the store's log stream — the resume
	// cursor the replication protocol acks. logVer 3 keeps that header and
	// changes the frames behind it: records no longer repeat the batch
	// their commit marker states. A log of any other version fails
	// recovery by name (errLogVersion) rather than being read as torn.
	logVer = 3

	// logHeaderLen frames a log generation: magic, version, generation,
	// the batch seq and cumulative record count the generation starts
	// from, and a CRC.
	logHeaderLen = 4 + 2 + 8 + 8 + 8 + 4
)

// EncodeSnapshot serializes g with its provenance: seq is the batch
// sequence the snapshot reflects, cum the cumulative mutation-record count
// consumed to reach it. Layout: magic, version, seq, cum, directed, n, m,
// the edge list (u, v, weight — each undirected edge once), an optional
// label section, and a trailing CRC32C over everything before it.
func EncodeSnapshot(g *graph.Graph, seq, cum uint64) []byte {
	return EncodeSnapshotLabels(g, seq, cum, nil, 0)
}

// EncodeSnapshotLabels is EncodeSnapshot plus the durable label epoch ls
// reads, stamped labelSeq, compacted into the image (nil → an empty label
// section).
func EncodeSnapshotLabels(g *graph.Graph, seq, cum uint64, ls LabelReader, labelSeq uint64) []byte {
	edges := g.Edges()
	buf := make([]byte, 0, 4+2+8+8+1+4+8+16*len(edges)+labelSectionSize(ls)+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVer)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, cum)
	if g.Directed() {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.N()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
	}
	buf = appendLabelSection(buf, ls, labelSeq)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

func labelSectionSize(ls LabelReader) int {
	if ls == nil {
		return 1
	}
	n := ls.N()
	return 1 + 8 + 4 + 4 + n*12 + (n+7)/8 + 1 + (n+7)/8
}

// appendLabelSection serializes ls stamped seq: a presence byte, then seq,
// dest, n, dist (f64×n), next (i32×n), the MIS bitset, a CDS presence
// byte, and the CDS bitset when present.
func appendLabelSection(buf []byte, ls LabelReader, seq uint64) []byte {
	if ls == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	n := ls.N()
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ls.Destination()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for v := 0; v < n; v++ {
		d, _ := ls.Route(v)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
	}
	for v := 0; v < n; v++ {
		_, nx := ls.Route(v)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nx))
	}
	buf = appendBitset(buf, n, ls.InMIS)
	if ls.HasBackbone() {
		buf = append(buf, 1)
		buf = appendBitset(buf, n, ls.InCDS)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// appendBitset packs bit(0..n-1) little-endian, eight to a byte.
func appendBitset(buf []byte, n int, bit func(int) bool) []byte {
	var b byte
	for i := 0; i < n; i++ {
		if bit(i) {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, b)
			b = 0
		}
	}
	if n%8 != 0 {
		buf = append(buf, b)
	}
	return buf
}

func decodeBitset(data []byte, n int) ([]bool, []byte, error) {
	need := (n + 7) / 8
	if len(data) < need {
		return nil, nil, fmt.Errorf("%w: label bitset has %d byte(s), want %d", ErrCorrupt, len(data), need)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = data[i/8]&(1<<(i%8)) != 0
	}
	return bits, data[need:], nil
}

// decodeLabelSection parses the label section (everything between the edge
// list and the CRC). A v1 snapshot passes an empty slice and gets nil.
func decodeLabelSection(data []byte) (*LabelSet, error) {
	if len(data) == 0 {
		return nil, nil // v1: no section
	}
	if data[0] == 0 {
		if len(data) != 1 {
			return nil, fmt.Errorf("%w: %d byte(s) after empty label section", ErrCorrupt, len(data)-1)
		}
		return nil, nil
	}
	data = data[1:]
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: label section header has %d byte(s)", ErrCorrupt, len(data))
	}
	ls := &LabelSet{
		Seq:  binary.LittleEndian.Uint64(data),
		Dest: int(int32(binary.LittleEndian.Uint32(data[8:]))),
	}
	n := int(binary.LittleEndian.Uint32(data[12:]))
	data = data[16:]
	if n < 0 || len(data) < n*12 {
		return nil, fmt.Errorf("%w: label section claims %d node(s) in %d byte(s)", ErrCorrupt, n, len(data))
	}
	ls.Dist = make([]float64, n)
	ls.Next = make([]int32, n)
	for i := 0; i < n; i++ {
		ls.Dist[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	data = data[n*8:]
	for i := 0; i < n; i++ {
		ls.Next[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
	}
	data = data[n*4:]
	var err error
	if ls.MIS, data, err = decodeBitset(data, n); err != nil {
		return nil, err
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: label section missing CDS flag", ErrCorrupt)
	}
	hasCDS := data[0]
	data = data[1:]
	if hasCDS == 1 {
		ls.HasCDS = true
		if ls.CDS, data, err = decodeBitset(data, n); err != nil {
			return nil, err
		}
	} else if hasCDS != 0 {
		return nil, fmt.Errorf("%w: label section CDS flag %d", ErrCorrupt, hasCDS)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d byte(s) after label section", ErrCorrupt, len(data))
	}
	return ls, nil
}

// DecodeSnapshot is EncodeSnapshot's inverse (labels, if any, dropped).
func DecodeSnapshot(data []byte) (g *graph.Graph, seq, cum uint64, err error) {
	g, seq, cum, _, err = DecodeSnapshotLabels(data)
	return g, seq, cum, err
}

// DecodeSnapshotLabels is EncodeSnapshotLabels's inverse. Any truncation,
// checksum mismatch, or malformed edge yields an error wrapping ErrCorrupt;
// it never panics and never returns a partially-built graph. v1 snapshots
// (no label section) decode with nil labels.
func DecodeSnapshotLabels(data []byte) (g *graph.Graph, seq, cum uint64, ls *LabelSet, err error) {
	const head = 4 + 2 + 8 + 8 + 1 + 4 + 8
	if len(data) < head+4 {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot has %d byte(s)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != snapMagic {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot magic %q", ErrCorrupt, data[:4])
	}
	ver := binary.LittleEndian.Uint16(data[4:])
	if ver != snapVer && ver != snapVer1 {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot version %d (want %d)", ErrCorrupt, ver, snapVer)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(data[6:])
	cum = binary.LittleEndian.Uint64(data[14:])
	directed := data[22] != 0
	n := int(binary.LittleEndian.Uint32(data[23:]))
	m := binary.LittleEndian.Uint64(data[27:])
	edgeBytes := uint64(len(body) - head)
	if ver == snapVer1 {
		if edgeBytes != 16*m {
			return nil, 0, 0, nil, fmt.Errorf("%w: snapshot claims %d edge(s) in %d byte(s)", ErrCorrupt, m, edgeBytes)
		}
	} else if edgeBytes < 16*m {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot claims %d edge(s) in %d byte(s)", ErrCorrupt, m, edgeBytes)
	}
	// Bulk-build through the two-pass arena loader: snapshot decode is the
	// recovery hot path, and per-edge appends were its dominant cost.
	g, err = graph.FromEdges(n, directed, int(m), func(i int) (int, int, float64) {
		off := head + 16*i
		return int(int32(binary.LittleEndian.Uint32(data[off:]))),
			int(int32(binary.LittleEndian.Uint32(data[off+4:]))),
			math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
	})
	if err != nil {
		return nil, 0, 0, nil, fmt.Errorf("%w: snapshot edges: %v", ErrCorrupt, err)
	}
	off := head + 16*int(m)
	if ver >= snapVer {
		if ls, err = decodeLabelSection(body[off:]); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	return g, seq, cum, ls, nil
}

// SaveGraph writes g to path through the snapshot codec, atomically and
// durably: a temp file is written, fsynced, renamed over the target, and
// the rename made durable. The file is readable by LoadGraph and usable as
// a server boot image.
func SaveGraph(path string, g *graph.Graph) error {
	return writeFileDurable(OS(), path, EncodeSnapshot(g, 0, 0))
}

// LoadGraph reads a snapshot-codec graph file written by SaveGraph (or a
// live snapshot from a WAL data dir).
func LoadGraph(path string) (*graph.Graph, error) {
	data, err := OS().ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, _, _, err := DecodeSnapshot(data)
	return g, err
}

// ---- superblock ----

// superblock names the live (snapshot, log) generation pair. It is tiny and
// rewritten atomically (temp + rename), so recovery sees either the old or
// the new generation, never a mix. gen counts generation swaps across the
// store's whole life; fence is the fencing token a promoted replica bumps
// so a deposed primary's stream is rejected.
type superblock struct {
	snapSeq  uint64
	gen      uint64
	fence    uint64
	snapName string
	logName  string
}

func encodeSuper(sb superblock) []byte {
	buf := make([]byte, 0, 4+2+8+8+8+2+len(sb.snapName)+2+len(sb.logName)+4)
	buf = append(buf, superMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, superVer)
	buf = binary.LittleEndian.AppendUint64(buf, sb.snapSeq)
	buf = binary.LittleEndian.AppendUint64(buf, sb.gen)
	buf = binary.LittleEndian.AppendUint64(buf, sb.fence)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sb.snapName)))
	buf = append(buf, sb.snapName...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sb.logName)))
	buf = append(buf, sb.logName...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

func decodeSuper(data []byte) (superblock, error) {
	var sb superblock
	if len(data) < 4+2+8+2+2+4 {
		return sb, fmt.Errorf("%w: superblock has %d byte(s)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != superMagic {
		return sb, fmt.Errorf("%w: superblock magic %q", ErrCorrupt, data[:4])
	}
	ver := binary.LittleEndian.Uint16(data[4:])
	if ver != superVer && ver != superVer1 {
		return sb, fmt.Errorf("%w: superblock version %d (want %d)", ErrCorrupt, ver, superVer)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return sb, fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	sb.snapSeq = binary.LittleEndian.Uint64(data[6:])
	off := 14
	if ver == superVer {
		if len(body) < off+16 {
			return sb, fmt.Errorf("%w: superblock gen/fence truncated", ErrCorrupt)
		}
		sb.gen = binary.LittleEndian.Uint64(body[off:])
		sb.fence = binary.LittleEndian.Uint64(body[off+8:])
		off += 16
	}
	read := func() (string, bool) {
		if off+2 > len(body) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+n > len(body) {
			return "", false
		}
		s := string(body[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if sb.snapName, ok = read(); !ok {
		return sb, fmt.Errorf("%w: superblock snapshot name truncated", ErrCorrupt)
	}
	if sb.logName, ok = read(); !ok {
		return sb, fmt.Errorf("%w: superblock log name truncated", ErrCorrupt)
	}
	return sb, nil
}

// ---- log generation header ----

func encodeLogHeader(gen, startSeq, startCum uint64) []byte {
	buf := make([]byte, 0, logHeaderLen)
	buf = append(buf, logMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, logVer)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, startSeq)
	buf = binary.LittleEndian.AppendUint64(buf, startCum)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// errLogVersion marks a whole, checksummed log header of a version this
// build does not read: real data in another format, not a torn header.
var errLogVersion = fmt.Errorf("%w: unsupported log version", ErrCorrupt)

func decodeLogHeader(data []byte) (gen, startSeq, startCum uint64, err error) {
	if len(data) < logHeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: log header has %d byte(s)", ErrCorrupt, len(data))
	}
	h := data[:logHeaderLen]
	if string(h[:4]) != logMagic {
		return 0, 0, 0, fmt.Errorf("%w: log magic %q", ErrCorrupt, h[:4])
	}
	if crc32.Checksum(h[:logHeaderLen-4], castagnoli) != binary.LittleEndian.Uint32(h[logHeaderLen-4:]) {
		return 0, 0, 0, fmt.Errorf("%w: log header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(h[4:]); v != logVer {
		return 0, 0, 0, fmt.Errorf("%w %d (want %d)", errLogVersion, v, logVer)
	}
	return binary.LittleEndian.Uint64(h[6:]), binary.LittleEndian.Uint64(h[14:]), binary.LittleEndian.Uint64(h[22:]), nil
}

// ---- topology hashing ----

// GraphHash returns an order-insensitive FNV-1a hash of g's topology and
// weights: two graphs hash equal iff they have the same node count,
// directedness, and multiset of weighted edges, regardless of adjacency
// ordering. CSRHash computes the same value from a frozen snapshot, so an
// epoch can be compared against an independently replayed mutation prefix.
func GraphHash(g *graph.Graph) uint64 {
	return hashEdges(g.N(), g.Directed(), g.Edges())
}

// Topology is the read surface CSRHash needs from an immutable topology
// snapshot; graph.CSR and graph.PagedCSR both provide it.
type Topology interface {
	N() int
	M() int
	Directed() bool
	Neighbors(v int) []int32
	NeighborWeights(v int) []float64
}

// CSRHash is GraphHash over a frozen snapshot.
func CSRHash(c Topology) uint64 {
	edges := make([]graph.Edge, 0, c.M())
	n := c.N()
	for u := 0; u < n; u++ {
		ws := c.NeighborWeights(u)
		for i, v := range c.Neighbors(u) {
			if c.Directed() || u < int(v) {
				edges = append(edges, graph.Edge{From: u, To: int(v), Weight: ws[i]})
			}
		}
	}
	return hashEdges(n, c.Directed(), edges)
}

func hashEdges(n int, directed bool, edges []graph.Edge) uint64 {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Weight < edges[j].Weight
	})
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(n))
	if directed {
		put(1)
	} else {
		put(0)
	}
	for _, e := range edges {
		put(uint64(e.From))
		put(uint64(e.To))
		put(math.Float64bits(e.Weight))
	}
	return h.Sum64()
}
