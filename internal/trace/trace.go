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
// everything before it, written little-endian (the framing is
// internal/frame, shared with the MDPF profile artifact). The hash doubles as the trace ID, so the same
// description, workload, and outcomes always produce the same ID —
// traces are content-addressed, and a flipped bit anywhere fails Read.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"mdes/internal/frame"
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
	kind, err := resctx.ParseKind(rec.Meta.Checker)
	if err != nil {
		return err
	}
	blocks, err := rec.replayBlocks()
	if err != nil {
		return err
	}
	pool, err := resctx.NewPool(m, kind)
	if err != nil {
		return err
	}
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
	var e frame.Encoder
	e.Write(magic[:])
	e.Uvarint(Version)
	e.Str(rec.Meta.Machine)
	e.Str(rec.Meta.MachineHash)
	e.Str(rec.Meta.Form)
	e.Str(rec.Meta.Level)
	e.Str(rec.Meta.Checker)
	if rec.Workload.Seeded {
		e.Byte(1)
		e.Uvarint(uint64(rec.Workload.NumOps))
		e.Varint(rec.Workload.Seed)
		e.Uvarint(uint64(rec.Workload.Shards))
	} else {
		e.Byte(0)
		e.Uvarint(uint64(len(rec.Workload.Blocks)))
		for _, b := range rec.Workload.Blocks {
			e.Uvarint(uint64(len(b.Ops)))
			for _, op := range b.Ops {
				e.Str(op.Opcode)
				e.Varint(int64(op.ID))
				e.Uvarint(uint64(len(op.Dests)))
				for _, d := range op.Dests {
					e.Varint(int64(d))
				}
				e.Uvarint(uint64(len(op.Srcs)))
				for _, s := range op.Srcs {
					e.Varint(int64(s))
				}
				e.Uvarint(uint64(op.Mem))
				var flags byte
				if op.Branch {
					flags |= 1
				}
				if op.Cascaded {
					flags |= 2
				}
				e.Byte(flags)
			}
		}
	}
	e.Uvarint(uint64(len(rec.Outcomes)))
	for i := range rec.Outcomes {
		o := &rec.Outcomes[i]
		e.Varint(int64(o.Length))
		e.Uvarint(uint64(len(o.Issue)))
		for _, c := range o.Issue {
			e.Varint(int64(c))
		}
		e.Varint(o.Counters.Attempts)
		e.Varint(o.Counters.OptionsChecked)
		e.Varint(o.Counters.ResourceChecks)
		e.Varint(o.Counters.Conflicts)
		e.Varint(o.Counters.Backtracks)
	}
	rec.ID = fmt.Sprintf("%016x", e.Seal(binary.LittleEndian))
	return e.Buf, rec.ID, nil
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
	body, stored, sum := frame.Split(data, binary.LittleEndian)
	if stored != sum {
		return nil, fmt.Errorf("trace: trailer hash %016x does not match content %016x (corrupt or truncated)", stored, sum)
	}
	d := frame.NewDecoder(body)
	var mg [4]byte
	d.Read(mg[:])
	if mg != magic {
		return nil, fmt.Errorf("trace: bad magic %q", mg)
	}
	if v := d.Uvarint(); v != Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (have %d)", v, Version)
	}
	rec := &Recording{ID: fmt.Sprintf("%016x", sum)}
	rec.Meta.Machine = d.Str()
	rec.Meta.MachineHash = d.Str()
	rec.Meta.Form = d.Str()
	rec.Meta.Level = d.Str()
	rec.Meta.Checker = d.Str()
	switch kind := d.Byte(); kind {
	case 1:
		rec.Workload.Seeded = true
		rec.Workload.NumOps = int(d.Uvarint())
		rec.Workload.Seed = d.Varint()
		rec.Workload.Shards = int(d.Uvarint())
	case 0:
		nb := d.Count()
		rec.Workload.Blocks = make([]*ir.Block, 0, nb)
		for i := 0; i < nb && d.Err == nil; i++ {
			nops := d.Count()
			b := &ir.Block{Ops: make([]*ir.Operation, 0, nops)}
			for j := 0; j < nops && d.Err == nil; j++ {
				op := &ir.Operation{Opcode: d.Str(), ID: int(d.Varint())}
				for k, n := 0, d.Count(); k < n && d.Err == nil; k++ {
					op.Dests = append(op.Dests, int(d.Varint()))
				}
				for k, n := 0, d.Count(); k < n && d.Err == nil; k++ {
					op.Srcs = append(op.Srcs, int(d.Varint()))
				}
				op.Mem = ir.MemKind(d.Uvarint())
				flags := d.Byte()
				op.Branch = flags&1 != 0
				op.Cascaded = flags&2 != 0
				b.Ops = append(b.Ops, op)
			}
			rec.Workload.Blocks = append(rec.Workload.Blocks, b)
		}
	default:
		return nil, fmt.Errorf("trace: unknown workload kind %d", kind)
	}
	no := d.Count()
	rec.Outcomes = make([]Outcome, 0, no)
	for i := 0; i < no && d.Err == nil; i++ {
		var o Outcome
		o.Length = int(d.Varint())
		ni := d.Count()
		o.Issue = make([]int, 0, ni)
		for j := 0; j < ni && d.Err == nil; j++ {
			o.Issue = append(o.Issue, int(d.Varint()))
		}
		o.Counters.Attempts = d.Varint()
		o.Counters.OptionsChecked = d.Varint()
		o.Counters.ResourceChecks = d.Varint()
		o.Counters.Conflicts = d.Varint()
		o.Counters.Backtracks = d.Varint()
		rec.Outcomes = append(rec.Outcomes, o)
	}
	if d.Err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after recording", d.Rest())
	}
	if err := rec.Workload.Check(); err != nil {
		return nil, err
	}
	return rec, nil
}
