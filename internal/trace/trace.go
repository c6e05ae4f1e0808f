// Package trace records and replays scheduling runs as versioned,
// content-addressed binary traces.
//
// A recording captures everything needed to reproduce a scheduling run
// bit-for-bit: the identity of the compiled description (machine name,
// content fingerprint, representation form, optimization level, checker
// backend), the workload (either a deterministic generator spec — ops,
// seed, shards — or the blocks themselves, inlined), and every block's
// outcome (schedule length, per-operation issue cycles, the paper's
// five counters). Because the engine's scheduling is deterministic for
// a fixed description and workload, Replay can re-run the recording and
// assert byte-identical schedules — turning any flight-recorder anomaly
// or bug report that ships a trace file into a reproducible test case.
// For the same reason Render re-derives the per-attempt trace — every
// attempt, option and conflict of every block, the paper's Figure 2 data
// — from a recording after the fact, so no serving path pays for it.
//
// The format is a single self-delimiting binary blob: a magic/version
// header, varint-encoded body, and an FNV-64a trailer hash over
// everything before it. The hash doubles as the trace ID, so the same
// description, workload, and outcomes always produce the same ID —
// traces are content-addressed, and a flipped bit anywhere fails Read.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/obs"
	"mdes/internal/resctx"
	"mdes/internal/sched"
	"mdes/internal/stats"
	"mdes/internal/workload"
)

// Version is the trace format version this package writes.
const Version = 1

// magic identifies an mdes trace stream.
var magic = [4]byte{'M', 'D', 'T', 'R'}

// Meta identifies the compiled description a recording ran against.
type Meta struct {
	// Machine is the machine description name (e.g. "AMD-K5").
	Machine string
	// MachineHash is the compiled description's content fingerprint
	// (lowlevel.MDES.Fingerprint). Replay tooling refuses a recording
	// whose hash does not match the description it is replaying on.
	MachineHash string
	// Form, Level, Checker are the compile/optimize/backend settings,
	// as their flag spellings ("andor", "full", "probeplan").
	Form    string
	Level   string
	Checker string
}

// Workload is a recording's input stream: either a deterministic
// generator spec (Seeded) or the blocks themselves, inlined.
type Workload struct {
	Seeded bool
	// NumOps, Seed, Shards parameterize workload.GenerateParallel when
	// Seeded; the result depends only on these and the machine name.
	NumOps int
	Seed   int64
	Shards int
	// Blocks is the inline workload when !Seeded.
	Blocks []*ir.Block
}

// Bounds of a seeded workload, which replay regenerates from a few
// bytes: Decode refuses a recording asking for more, and Capture refuses
// to record one. MaxWorkloadOps admits the paper's
// largest stream (282,219 static operations, §4). Inline blocks are held
// to the per-block bounds of internal/ir, which the mdesd request decoder
// shares.
const (
	MaxWorkloadOps    = 1 << 19
	MaxWorkloadShards = 256
)

// Check returns an error unless the workload is within the bounds Decode
// enforces: a seeded spec within MaxWorkloadOps and MaxWorkloadShards,
// inline blocks within ir.MaxOpsPerBlock and ir.CheckOperation.
func (wl *Workload) Check() error {
	if wl.Seeded {
		if wl.NumOps < 1 || wl.NumOps > MaxWorkloadOps {
			return fmt.Errorf("trace: seeded workload of %d ops outside [1,%d]", wl.NumOps, MaxWorkloadOps)
		}
		if wl.Shards < 0 || wl.Shards > MaxWorkloadShards {
			return fmt.Errorf("trace: %d workload shards outside [0,%d]", wl.Shards, MaxWorkloadShards)
		}
		return nil
	}
	for bi, b := range wl.Blocks {
		if len(b.Ops) > ir.MaxOpsPerBlock {
			return fmt.Errorf("trace: block %d: %d ops exceed the per-block cap of %d", bi, len(b.Ops), ir.MaxOpsPerBlock)
		}
		for oi, op := range b.Ops {
			if err := ir.CheckOperation(op.Opcode, op.Srcs, op.Dests); err != nil {
				return fmt.Errorf("trace: block %d op %d: %w", bi, oi, err)
			}
			if op.Mem < ir.MemNone || op.Mem > ir.MemStore {
				return fmt.Errorf("trace: block %d op %d: unknown mem kind %d", bi, oi, op.Mem)
			}
		}
	}
	return nil
}

// Outcome is one block's recorded scheduling result.
type Outcome struct {
	// Length is the schedule length in cycles.
	Length int
	// Issue is the per-operation issue cycle, indexed like Block.Ops.
	Issue []int
	// Counters are the block's own scheduling counters.
	Counters stats.Counters
}

// Recording is a complete trace: what ran, on what, and what came out.
type Recording struct {
	Meta     Meta
	Workload Workload
	Outcomes []Outcome
	// ID is the content hash of the encoded recording (set by Encode,
	// Write, and Read): equal recordings have equal IDs.
	ID string
}

// Blocks materializes the recording's workload: inline blocks are
// returned directly, seeded workloads are regenerated deterministically
// from (machine, ops, seed, shards). A workload outside the bounds of
// Workload.Check is refused before anything is built.
func (rec *Recording) Blocks() ([]*ir.Block, error) {
	if err := rec.Workload.Check(); err != nil {
		return nil, err
	}
	if !rec.Workload.Seeded {
		return rec.Workload.Blocks, nil
	}
	p, err := workload.GenerateParallel(workload.Config{
		Machine: machines.Name(rec.Meta.Machine),
		NumOps:  rec.Workload.NumOps,
		Seed:    rec.Workload.Seed,
	}, rec.Workload.Shards)
	if err != nil {
		return nil, fmt.Errorf("trace: regenerate workload: %w", err)
	}
	return p.Blocks, nil
}

// BlockScheduler schedules a batch of blocks — the slice of mdes.Engine
// this package needs, stated structurally so trace does not import the
// root package.
type BlockScheduler interface {
	ScheduleBlocks(ctx context.Context, blocks []*ir.Block, parallelism int) ([]*sched.Result, stats.Counters, error)
}

// Capture runs the workload through the engine and returns the
// recording of what happened. The workload's blocks are materialized
// with Recording.Blocks, so a seeded workload records only its spec.
func Capture(ctx context.Context, eng BlockScheduler, meta Meta, wl Workload, parallelism int) (*Recording, error) {
	rec := &Recording{Meta: meta, Workload: wl}
	blocks, err := rec.Blocks()
	if err != nil {
		return nil, err
	}
	results, _, err := eng.ScheduleBlocks(ctx, blocks, parallelism)
	if err != nil {
		return nil, fmt.Errorf("trace: capture: %w", err)
	}
	rec.Outcomes = make([]Outcome, len(results))
	for i, r := range results {
		rec.Outcomes[i] = Outcome{Length: r.Length, Issue: r.Issue, Counters: r.Counters}
	}
	return rec, nil
}

// Mismatch reports one block whose replayed outcome differs from the
// recording. What names the first differing field, the replayed value
// before the recorded one.
type Mismatch struct {
	Block int
	What  string
}

// ReplayReport is the result of replaying a recording.
type ReplayReport struct {
	// Blocks is the number of blocks replayed.
	Blocks int
	// Mismatches lists every block whose replayed schedule or counters
	// differ from the recording; empty means byte-identical.
	Mismatches []Mismatch
}

// Identical reports whether the replay reproduced the recording exactly.
func (r *ReplayReport) Identical() bool { return len(r.Mismatches) == 0 }

// ErrHashMismatch reports that the description a recording names now
// compiles to a different fingerprint than the one it was recorded
// against: the description, or the encoding its fingerprint is taken
// over, changed since, so replay would compare schedules of different
// descriptions. mdtrace replay and mdreport -tune refuse such recordings.
var ErrHashMismatch = errors.New("trace: description hash mismatch")

// CheckHash returns an error wrapping ErrHashMismatch unless fingerprint,
// the fingerprint of the description about to replay the recording, is
// the one the recording was made against.
func (rec *Recording) CheckHash(fingerprint string) error {
	if fingerprint != rec.Meta.MachineHash {
		return fmt.Errorf("%w: %s compiles to hash %s, trace was recorded against %s",
			ErrHashMismatch, rec.Meta.Machine, fingerprint, rec.Meta.MachineHash)
	}
	return nil
}

// Replay re-runs a recording's workload through the engine and compares
// every block's schedule and counters against the recorded outcomes.
// The caller is responsible for constructing the engine from the same
// description the recording names (CheckHash against the description's
// fingerprint first; mdtrace does).
func Replay(ctx context.Context, eng BlockScheduler, rec *Recording, parallelism int) (*ReplayReport, error) {
	rep, _, err := replay(ctx, eng, rec, parallelism, true)
	return rep, err
}

// ReplaySchedules re-runs a recording's workload and compares only the
// schedules — block length and per-op issue cycles — against the
// recorded outcomes, returning the replayed totals alongside. This is
// the comparison a description-tuning pass needs: a legitimate layout
// change (e.g. opt.ReorderFromProfile) must preserve every schedule
// byte-for-byte while deliberately changing OptionsChecked and
// ResourceChecks, so Replay's counter equality would reject exactly the
// improvement being verified. The caller compares the returned totals
// against the recording's summed counters itself (tuning accepts only
// when they drop).
func ReplaySchedules(ctx context.Context, eng BlockScheduler, rec *Recording, parallelism int) (*ReplayReport, stats.Counters, error) {
	return replay(ctx, eng, rec, parallelism, false)
}

// replay is Replay (counters set) and ReplaySchedules.
func replay(ctx context.Context, eng BlockScheduler, rec *Recording, parallelism int, counters bool) (*ReplayReport, stats.Counters, error) {
	blocks, err := rec.replayBlocks()
	if err != nil {
		return nil, stats.Counters{}, err
	}
	results, total, err := eng.ScheduleBlocks(ctx, blocks, parallelism)
	if err != nil {
		return nil, stats.Counters{}, fmt.Errorf("trace: replay: %w", err)
	}
	return rec.compare(results, counters), total, nil
}

// Render re-derives a recording's per-attempt trace: it replays the
// workload serially with sched.ScheduleAll on description m, on one
// context borrowed from a pool whose only observation view is the trace,
// and writes each block's obs.BlockRecord to w as one JSON line, in
// block order. Scheduling is deterministic, so these are the records the
// recorded run would have produced with the view attached.
//
// Render freezes m. It refuses a recording made against another
// description (ErrHashMismatch), and returns an error when any replayed
// schedule or counter differs from the recording; the lines already
// written then describe the diverging replay.
func Render(w io.Writer, m *lowlevel.MDES, rec *Recording) error {
	if err := m.Freeze(); err != nil {
		return err
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return err
	}
	if err := rec.CheckHash(fp); err != nil {
		return err
	}
	kind, err := check.ParseKind(rec.Meta.Checker)
	if err != nil {
		return err
	}
	blocks, err := rec.replayBlocks()
	if err != nil {
		return err
	}
	f, err := check.NewFactory(m, kind)
	if err != nil {
		return err
	}
	pool := resctx.NewPoolFor(f)
	enc := json.NewEncoder(w)
	var werr error
	pool.Observe(&obs.Views{MDES: m, Trace: func(r *obs.BlockRecord) {
		if werr == nil {
			werr = enc.Encode(r)
		}
	}})
	cx := pool.Get()
	defer cx.Release()
	results, _, err := sched.NewWithContext(m, cx).ScheduleAll(blocks)
	if err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("trace: render: %w", err)
	}
	if rep := rec.compare(results, true); !rep.Identical() {
		first := rep.Mismatches[0]
		return fmt.Errorf("trace: render: %d of %d blocks diverged from trace %s (block %d: %s)",
			len(rep.Mismatches), rep.Blocks, rec.ID, first.Block, first.What)
	}
	return nil
}

// replayBlocks materializes the workload of a recording about to be
// replayed, which must hold one outcome per block.
func (rec *Recording) replayBlocks() ([]*ir.Block, error) {
	blocks, err := rec.Blocks()
	if err != nil {
		return nil, err
	}
	if len(blocks) != len(rec.Outcomes) {
		return nil, fmt.Errorf("trace: recording has %d outcomes for %d blocks", len(rec.Outcomes), len(blocks))
	}
	return blocks, nil
}

// compare reports every block whose replayed result differs from its
// recorded outcome, counters included when counters is set.
func (rec *Recording) compare(results []*sched.Result, counters bool) *ReplayReport {
	rep := &ReplayReport{Blocks: len(results)}
	for i, r := range results {
		got := Outcome{Length: r.Length, Issue: r.Issue, Counters: r.Counters}
		if what := differ(&got, &rec.Outcomes[i], counters); what != "" {
			rep.Mismatches = append(rep.Mismatches, Mismatch{i, what})
		}
	}
	return rep
}

// differ is the one outcome comparison of Replay, ReplaySchedules, Render
// and Diff: it names the first field in which a differs from b — length,
// issue cycles, then counters when counters is set — or returns "".
func differ(a, b *Outcome, counters bool) string {
	switch {
	case a.Length != b.Length:
		return fmt.Sprintf("length %d vs %d", a.Length, b.Length)
	case !slices.Equal(a.Issue, b.Issue):
		return "issue cycles differ"
	case counters && a.Counters != b.Counters:
		return fmt.Sprintf("counters %+v vs %+v", a.Counters, b.Counters)
	}
	return ""
}

// Totals sums the recorded per-block counters: the baseline a tuning run
// compares its replayed totals against.
func (rec *Recording) Totals() stats.Counters {
	var total stats.Counters
	for i := range rec.Outcomes {
		total.Add(rec.Outcomes[i].Counters)
	}
	return total
}

// Diff compares two recordings and returns human-readable differences,
// empty when they are equivalent (IDs are not compared — two files with
// equal content have equal IDs anyway).
func Diff(a, b *Recording) []string {
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if a.Meta != b.Meta {
		note("meta: %+v vs %+v", a.Meta, b.Meta)
	}
	if a.Workload.Seeded != b.Workload.Seeded ||
		a.Workload.NumOps != b.Workload.NumOps ||
		a.Workload.Seed != b.Workload.Seed ||
		a.Workload.Shards != b.Workload.Shards ||
		len(a.Workload.Blocks) != len(b.Workload.Blocks) {
		note("workload: {seeded:%v ops:%d seed:%d shards:%d inline:%d} vs {seeded:%v ops:%d seed:%d shards:%d inline:%d}",
			a.Workload.Seeded, a.Workload.NumOps, a.Workload.Seed, a.Workload.Shards, len(a.Workload.Blocks),
			b.Workload.Seeded, b.Workload.NumOps, b.Workload.Seed, b.Workload.Shards, len(b.Workload.Blocks))
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		note("outcomes: %d vs %d blocks", len(a.Outcomes), len(b.Outcomes))
		return out
	}
	const maxBlockDiffs = 10
	diffs := 0
	for i := range a.Outcomes {
		what := differ(&a.Outcomes[i], &b.Outcomes[i], true)
		if what == "" {
			continue
		}
		diffs++
		if diffs <= maxBlockDiffs {
			note("block %d: %s", i, what)
		}
	}
	if diffs > maxBlockDiffs {
		note("... and %d more differing blocks", diffs-maxBlockDiffs)
	}
	return out
}

// Encode serializes the recording (format Version) and returns the
// bytes and the content-address trace ID, also stored in rec.ID.
func Encode(rec *Recording) ([]byte, string, error) {
	var e encoder
	e.write(magic[:])
	e.uvarint(Version)
	e.str(rec.Meta.Machine)
	e.str(rec.Meta.MachineHash)
	e.str(rec.Meta.Form)
	e.str(rec.Meta.Level)
	e.str(rec.Meta.Checker)
	if rec.Workload.Seeded {
		e.byte(1)
		e.uvarint(uint64(rec.Workload.NumOps))
		e.varint(rec.Workload.Seed)
		e.uvarint(uint64(rec.Workload.Shards))
	} else {
		e.byte(0)
		e.uvarint(uint64(len(rec.Workload.Blocks)))
		for _, b := range rec.Workload.Blocks {
			e.uvarint(uint64(len(b.Ops)))
			for _, op := range b.Ops {
				e.str(op.Opcode)
				e.varint(int64(op.ID))
				e.uvarint(uint64(len(op.Dests)))
				for _, d := range op.Dests {
					e.varint(int64(d))
				}
				e.uvarint(uint64(len(op.Srcs)))
				for _, s := range op.Srcs {
					e.varint(int64(s))
				}
				e.uvarint(uint64(op.Mem))
				var flags byte
				if op.Branch {
					flags |= 1
				}
				if op.Cascaded {
					flags |= 2
				}
				e.byte(flags)
			}
		}
	}
	e.uvarint(uint64(len(rec.Outcomes)))
	for i := range rec.Outcomes {
		o := &rec.Outcomes[i]
		e.varint(int64(o.Length))
		e.uvarint(uint64(len(o.Issue)))
		for _, c := range o.Issue {
			e.varint(int64(c))
		}
		e.varint(o.Counters.Attempts)
		e.varint(o.Counters.OptionsChecked)
		e.varint(o.Counters.ResourceChecks)
		e.varint(o.Counters.Conflicts)
		e.varint(o.Counters.Backtracks)
	}
	h := fnv.New64a()
	h.Write(e.buf)
	sum := h.Sum64()
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], sum)
	e.write(trailer[:])
	rec.ID = fmt.Sprintf("%016x", sum)
	return e.buf, rec.ID, nil
}

// Write encodes the recording to w in one Write call (so a trace sink
// sees whole records, never fragments) and returns its trace ID.
func Write(w io.Writer, rec *Recording) (string, error) {
	data, id, err := Encode(rec)
	if err != nil {
		return "", err
	}
	if _, err := w.Write(data); err != nil {
		return "", fmt.Errorf("trace: write: %w", err)
	}
	return id, nil
}

// Read decodes a recording written by Write, verifying the format
// version and the trailer hash; rec.ID is the verified content address.
func Read(r io.Reader) (*Recording, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Decode(data)
}

// Decode decodes one encoded recording, verifying magic, version, the
// trailer hash, and that the workload is within the bounds of
// Workload.Check, so replaying an accepted recording builds no more than
// those bounds allow.
func Decode(data []byte) (*Recording, error) {
	if len(data) < len(magic)+1+8 {
		return nil, fmt.Errorf("trace: truncated stream (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	if got := binary.LittleEndian.Uint64(trailer); got != sum {
		return nil, fmt.Errorf("trace: trailer hash %016x does not match content %016x (corrupt or truncated)", got, sum)
	}
	d := decoder{buf: body}
	var mg [4]byte
	d.read(mg[:])
	if mg != magic {
		return nil, fmt.Errorf("trace: bad magic %q", mg)
	}
	if v := d.uvarint(); v != Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (have %d)", v, Version)
	}
	rec := &Recording{ID: fmt.Sprintf("%016x", sum)}
	rec.Meta.Machine = d.str()
	rec.Meta.MachineHash = d.str()
	rec.Meta.Form = d.str()
	rec.Meta.Level = d.str()
	rec.Meta.Checker = d.str()
	switch kind := d.byte(); kind {
	case 1:
		rec.Workload.Seeded = true
		rec.Workload.NumOps = int(d.uvarint())
		rec.Workload.Seed = d.varint()
		rec.Workload.Shards = int(d.uvarint())
	case 0:
		nb := d.count()
		rec.Workload.Blocks = make([]*ir.Block, 0, nb)
		for i := 0; i < nb && d.err == nil; i++ {
			nops := d.count()
			b := &ir.Block{Ops: make([]*ir.Operation, 0, nops)}
			for j := 0; j < nops && d.err == nil; j++ {
				op := &ir.Operation{Opcode: d.str(), ID: int(d.varint())}
				for k, n := 0, d.count(); k < n && d.err == nil; k++ {
					op.Dests = append(op.Dests, int(d.varint()))
				}
				for k, n := 0, d.count(); k < n && d.err == nil; k++ {
					op.Srcs = append(op.Srcs, int(d.varint()))
				}
				op.Mem = ir.MemKind(d.uvarint())
				flags := d.byte()
				op.Branch = flags&1 != 0
				op.Cascaded = flags&2 != 0
				b.Ops = append(b.Ops, op)
			}
			rec.Workload.Blocks = append(rec.Workload.Blocks, b)
		}
	default:
		return nil, fmt.Errorf("trace: unknown workload kind %d", kind)
	}
	no := d.count()
	rec.Outcomes = make([]Outcome, 0, no)
	for i := 0; i < no && d.err == nil; i++ {
		var o Outcome
		o.Length = int(d.varint())
		ni := d.count()
		o.Issue = make([]int, 0, ni)
		for j := 0; j < ni && d.err == nil; j++ {
			o.Issue = append(o.Issue, int(d.varint()))
		}
		o.Counters.Attempts = d.varint()
		o.Counters.OptionsChecked = d.varint()
		o.Counters.ResourceChecks = d.varint()
		o.Counters.Conflicts = d.varint()
		o.Counters.Backtracks = d.varint()
		rec.Outcomes = append(rec.Outcomes, o)
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("trace: %d trailing bytes after recording", len(d.buf)-d.pos)
	}
	if err := rec.Workload.Check(); err != nil {
		return nil, err
	}
	return rec, nil
}

// encoder accumulates the varint-framed body in memory; errors are
// impossible (append never fails), keeping call sites linear.
type encoder struct {
	buf []byte
}

func (e *encoder) write(p []byte)   { e.buf = append(e.buf, p...) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder is the cursor-based counterpart; the first malformed field
// sticks in err and every later read returns zero values.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at offset %d", what, d.pos)
	}
}

func (d *decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if d.pos+len(p) > len(d.buf) {
		d.fail("bytes")
		return
	}
	copy(p, d.buf[d.pos:])
	d.pos += len(p)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.pos += n
	return v
}

// count reads a collection length, bounding it by the bytes remaining
// so corrupt input cannot force a huge allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)-d.pos) {
		d.fail("collection length")
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}
