package serial

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// Binary snapshot encoding for the durable mechanism store
// (internal/store). Snapshots are what survives a crash, so the format is
// deliberately paranoid:
//
//   - versioned: an 8-byte magic carries the format revision; unknown
//     revisions are rejected, never guessed at;
//   - checksummed: the last 32 bytes are the SHA-256 of everything before
//     them, so a torn write or a flipped bit is detected before any field
//     is trusted;
//   - strictly validated: after the checksum passes, every decoded value
//     is range-checked (finite, probabilities in rows summing to 1, K
//     within the wire cap, CG columns inside the unit box) — the decoder
//     returns errors, never panics, on truncated or hostile input;
//   - self-describing: the full SolveSpec is embedded, so a snapshot can
//     be re-keyed, re-verified against its file name's digest, and turned
//     back into a servable mechanism with no out-of-band context.
//
// The payload uses fixed-width big-endian integers and IEEE-754 bit
// patterns, mirroring the canonical encoding SolveSpec.Digest hashes.

// Snapshot format magics; the trailing digit is the format revision.
// Revision 2 added the fencing token stamped by the shared-store lease
// protocol; revision-1 files are rejected (and therefore quarantined by
// the store), costing at most a cold re-solve.
const (
	entryMagic      = "VLPENT2\x00"
	checkpointMagic = "VLPCKP2\x00"
)

// maxPoolColumns bounds the CG column pool a snapshot may carry;
// generous (the solver admits at most a handful of columns per block per
// round) while keeping hostile inputs from requesting huge allocations.
const maxPoolColumns = 1 << 22

// StoredEntry is a durable snapshot of one completed (possibly degraded)
// cache entry: the spec that keys it, the served mechanism and its
// quality metadata. It holds no column pool: pools belong to the road
// network and live in its StoredCheckpoint.
type StoredEntry struct {
	Spec  SolveSpec
	Tier  string // one of the Quality* constants
	ETDD  float64
	Bound float64
	K     int
	Z     []float64 // K×K row-major, post-EnforceGeoI
	// Fence is the lease fencing token the writer held when it committed
	// this snapshot (0 for a single-process store with no lease). The
	// store layer stamps it; forensics on a quarantined snapshot can then
	// attribute the write to a leadership term.
	Fence uint64
}

// StoredCheckpoint is a durable column pool of one road network: the
// spec whose solve wrote it and its pool after Rounds CG rounds. The
// pool depends only on the spec's geometry (network, δ, ε, r), so a
// cold solve of any spec on that geometry can resume from it.
type StoredCheckpoint struct {
	Spec   SolveSpec
	Rounds int
	// Fence mirrors StoredEntry.Fence for pool checkpoints.
	Fence uint64
	State core.CGStateSnapshot
}

// Validate applies the full decode-side checks; Decode* call it, and
// writers call it before encoding so a corrupt snapshot is never
// committed in the first place.
func (e *StoredEntry) Validate() error {
	if err := e.Spec.Validate(); err != nil {
		return fmt.Errorf("stored entry spec: %w", err)
	}
	switch e.Tier {
	case QualityOptimal, QualityIncumbent, QualityFallback:
	default:
		return fmt.Errorf("stored entry has unknown tier %q", e.Tier)
	}
	if !finite(e.ETDD) || e.ETDD < 0 {
		return fmt.Errorf("stored entry has ETDD %v", e.ETDD)
	}
	if !finite(e.Bound) || e.Bound < 0 {
		return fmt.Errorf("stored entry has lower bound %v", e.Bound)
	}
	if e.K < 1 || e.K > maxWireK {
		return fmt.Errorf("stored entry K = %d out of range [1, %d]", e.K, maxWireK)
	}
	if len(e.Z) != e.K*e.K {
		return fmt.Errorf("stored entry Z has %d entries, want %d", len(e.Z), e.K*e.K)
	}
	for i := 0; i < e.K; i++ {
		sum := 0.0
		for l := 0; l < e.K; l++ {
			v := e.Z[i*e.K+l]
			if !finite(v) || v < 0 {
				return fmt.Errorf("stored entry Z[%d,%d] = %v is not a probability", i, l, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("stored entry row %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// Validate applies the full decode-side checks to a checkpoint.
func (c *StoredCheckpoint) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("stored checkpoint spec: %w", err)
	}
	if c.Rounds < 0 {
		return fmt.Errorf("stored checkpoint has %d rounds", c.Rounds)
	}
	return validateState(&c.State)
}

// validateState adds the wire bounds to the snapshot's own structural
// checks.
func validateState(st *core.CGStateSnapshot) error {
	if st.K > maxWireK {
		return fmt.Errorf("stored CG state K = %d exceeds %d", st.K, maxWireK)
	}
	if len(st.Columns) > maxPoolColumns {
		return fmt.Errorf("stored CG state has %d columns, cap %d", len(st.Columns), maxPoolColumns)
	}
	return st.Validate()
}

// EncodeStoredEntry renders a validated entry snapshot, checksum
// included. Encoding an invalid entry is a programming error surfaced as
// an error, not a corrupt file.
func EncodeStoredEntry(e *StoredEntry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("serial: refusing to encode: %w", err)
	}
	w := newSnapWriter(entryMagic)
	w.spec(&e.Spec)
	w.u64(uint64(tierCode(e.Tier)))
	w.u64(e.Fence)
	w.f64(e.ETDD)
	w.f64(e.Bound)
	w.u64(uint64(e.K))
	w.f64s(e.Z)
	w.u64(0) // the pool flag: entries carry no pool
	return w.seal(), nil
}

// DecodeStoredEntry parses and fully validates an entry snapshot. Any
// truncation, bit flip, version mismatch or out-of-range field is an
// error; the function never panics on hostile input.
func DecodeStoredEntry(data []byte) (*StoredEntry, error) {
	r, err := openSnap(data, entryMagic)
	if err != nil {
		return nil, err
	}
	var e StoredEntry
	if err := r.spec(&e.Spec); err != nil {
		return nil, err
	}
	tier, err := r.u64()
	if err != nil {
		return nil, err
	}
	if e.Tier, err = tierName(tier); err != nil {
		return nil, err
	}
	if e.Fence, err = r.u64(); err != nil {
		return nil, err
	}
	if e.ETDD, err = r.f64(); err != nil {
		return nil, err
	}
	if e.Bound, err = r.f64(); err != nil {
		return nil, err
	}
	k, err := r.count(maxWireK)
	if err != nil {
		return nil, err
	}
	e.K = k
	n, err := r.count(k * k)
	if err != nil {
		return nil, err
	}
	if n != k*k {
		return nil, corruptf("Z length %d, want %d", n, k*k)
	}
	if e.Z, err = r.f64s(n); err != nil {
		return nil, err
	}
	hasState, err := r.u64()
	if err != nil {
		return nil, err
	}
	switch hasState {
	case 0:
	case 1:
		// Entries of older writers carry a degraded run's pool here: it
		// is checked like every other field, then dropped.
		var st core.CGStateSnapshot
		if err := r.state(&st); err != nil {
			return nil, err
		}
		if err := validateState(&st); err != nil {
			return nil, fmt.Errorf("serial: stored entry state: %w", err)
		}
		if st.K != k {
			return nil, fmt.Errorf("serial: stored entry state K = %d, mechanism K = %d", st.K, k)
		}
	default:
		return nil, fmt.Errorf("serial: stored entry state flag %d", hasState)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("serial: %w", err)
	}
	return &e, nil
}

// EncodeStoredCheckpoint renders a validated checkpoint snapshot.
func EncodeStoredCheckpoint(c *StoredCheckpoint) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("serial: refusing to encode: %w", err)
	}
	w := newSnapWriter(checkpointMagic)
	w.spec(&c.Spec)
	w.u64(uint64(c.Rounds))
	w.u64(c.Fence)
	w.state(&c.State)
	return w.seal(), nil
}

// DecodeStoredCheckpoint parses and fully validates a checkpoint
// snapshot; same hostile-input contract as DecodeStoredEntry.
func DecodeStoredCheckpoint(data []byte) (*StoredCheckpoint, error) {
	r, err := openSnap(data, checkpointMagic)
	if err != nil {
		return nil, err
	}
	var c StoredCheckpoint
	if err := r.spec(&c.Spec); err != nil {
		return nil, err
	}
	rounds, err := r.u64()
	if err != nil {
		return nil, err
	}
	if rounds > 1<<30 {
		return nil, corruptf("checkpoint rounds %d", rounds)
	}
	c.Rounds = int(rounds)
	if c.Fence, err = r.u64(); err != nil {
		return nil, err
	}
	if err := r.state(&c.State); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("serial: %w", err)
	}
	return &c, nil
}

func tierCode(tier string) int {
	switch tier {
	case QualityOptimal:
		return 0
	case QualityIncumbent:
		return 1
	default:
		return 2
	}
}

func tierName(code uint64) (string, error) {
	switch code {
	case 0:
		return QualityOptimal, nil
	case 1:
		return QualityIncumbent, nil
	case 2:
		return QualityFallback, nil
	default:
		return "", fmt.Errorf("serial: unknown stored tier code %d", code)
	}
}

// snapWriter accumulates the snapshot body; seal appends the checksum.
type snapWriter struct {
	buf []byte
}

func newSnapWriter(magic string) *snapWriter {
	w := &snapWriter{buf: make([]byte, 0, 1024)}
	w.buf = append(w.buf, magic...)
	return w
}

func (w *snapWriter) u64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

func (w *snapWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *snapWriter) f64s(vs []float64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

func (w *snapWriter) spec(s *SolveSpec) {
	w.u64(uint64(len(s.Network.Nodes)))
	for _, n := range s.Network.Nodes {
		w.f64(n.X)
		w.f64(n.Y)
	}
	w.u64(uint64(len(s.Network.Edges)))
	for _, e := range s.Network.Edges {
		w.u64(uint64(int64(e.From)))
		w.u64(uint64(int64(e.To)))
		w.f64(e.Weight)
	}
	w.f64(s.Delta)
	w.f64(s.Epsilon)
	w.f64(s.Radius)
	w.f64s(s.Prior)
	w.f64s(s.TaskPrior)
	if s.Exact {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *snapWriter) state(st *core.CGStateSnapshot) {
	w.u64(uint64(st.K))
	w.u64(uint64(len(st.Columns)))
	for _, c := range st.Columns {
		w.u64(uint64(c.L))
		for _, v := range c.Z {
			w.f64(v)
		}
		w.f64(c.Cost)
	}
}

// seal appends the SHA-256 of everything written so far.
func (w *snapWriter) seal() []byte {
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...)
}

// corruptf builds a decode failure with the uniform corrupt-snapshot
// prefix the store layer keys quarantine decisions on.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("serial: corrupt snapshot: "+format, args...)
}

// snapReader walks the checksum-verified body with bounds checks on
// every read; all methods return errors rather than panicking.
type snapReader struct {
	buf []byte
	off int
}

// openSnap verifies length, magic and checksum, returning a reader over
// the payload (magic excluded, checksum stripped).
func openSnap(data []byte, magic string) (*snapReader, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, corruptf("%d bytes is shorter than header + checksum", len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum, want[:]) != 1 {
		return nil, corruptf("checksum mismatch")
	}
	if string(body[:len(magic)]) != magic {
		return nil, corruptf("magic %q, want %q", body[:len(magic)], magic)
	}
	return &snapReader{buf: body, off: len(magic)}, nil
}

func (r *snapReader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, corruptf("truncated at offset %d", r.off)
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *snapReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// count reads a u64 used as a length or index and bounds it both by max
// and by the bytes actually remaining (8 bytes per element at minimum),
// so hostile lengths cannot drive huge allocations.
func (r *snapReader) count(max int) (int, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, corruptf("count %d exceeds cap %d", v, max)
	}
	if v > uint64(len(r.buf)-r.off)/8+1 {
		return 0, corruptf("count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (r *snapReader) f64s(n int) ([]float64, error) {
	if n > (len(r.buf)-r.off)/8 {
		return nil, corruptf("%d floats exceed remaining payload", n)
	}
	vs := make([]float64, n)
	for i := range vs {
		v, err := r.f64()
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return vs, nil
}

func (r *snapReader) f64Slice() ([]float64, error) {
	n, err := r.count(maxWireK)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return r.f64s(n)
}

func (r *snapReader) spec(s *SolveSpec) error {
	nNodes, err := r.count(maxWireK)
	if err != nil {
		return err
	}
	net := &Network{Nodes: make([]Node, nNodes)}
	for i := range net.Nodes {
		if net.Nodes[i].X, err = r.f64(); err != nil {
			return err
		}
		if net.Nodes[i].Y, err = r.f64(); err != nil {
			return err
		}
	}
	nEdges, err := r.count(maxWireK)
	if err != nil {
		return err
	}
	net.Edges = make([]Edge, nEdges)
	for i := range net.Edges {
		from, err := r.u64()
		if err != nil {
			return err
		}
		to, err := r.u64()
		if err != nil {
			return err
		}
		net.Edges[i].From = int(int64(from))
		net.Edges[i].To = int(int64(to))
		if net.Edges[i].Weight, err = r.f64(); err != nil {
			return err
		}
	}
	s.Network = net
	if s.Delta, err = r.f64(); err != nil {
		return err
	}
	if s.Epsilon, err = r.f64(); err != nil {
		return err
	}
	if s.Radius, err = r.f64(); err != nil {
		return err
	}
	if s.Prior, err = r.f64Slice(); err != nil {
		return err
	}
	if s.TaskPrior, err = r.f64Slice(); err != nil {
		return err
	}
	exact, err := r.u64()
	if err != nil {
		return err
	}
	switch exact {
	case 0:
		s.Exact = false
	case 1:
		s.Exact = true
	default:
		return corruptf("exact flag %d", exact)
	}
	return nil
}

func (r *snapReader) state(st *core.CGStateSnapshot) error {
	k, err := r.count(maxWireK)
	if err != nil {
		return err
	}
	st.K = k
	nCols, err := r.count(maxPoolColumns)
	if err != nil {
		return err
	}
	st.Columns = make([]core.CGColumnSnapshot, nCols)
	for i := range st.Columns {
		l, err := r.u64()
		if err != nil {
			return err
		}
		st.Columns[i].L = int(int64(l))
		if st.Columns[i].Z, err = r.f64s(k); err != nil {
			return err
		}
		if st.Columns[i].Cost, err = r.f64(); err != nil {
			return err
		}
	}
	return nil
}

// done asserts the payload was consumed exactly; trailing garbage after
// a valid prefix still fails the decode.
func (r *snapReader) done() error {
	if r.off != len(r.buf) {
		return corruptf("%d unread payload bytes", len(r.buf)-r.off)
	}
	return nil
}
