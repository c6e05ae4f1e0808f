package lowlevel

// Flat arena serialization (MDAR v5), the one binary format of a compiled
// description. It minimizes *load work*: the whole description is one
// contiguous little-endian buffer of fixed-width, offset-indexed records,
// 8-byte aligned per section, so opening it is
//
//	validate header + CRC pair once  →  cast section offsets.
//
// Nothing in the payload is varint-coded and nothing needs per-node
// decoding: on a little-endian host every section is reinterpreted in
// place (unsafe.Slice) and the bulk payload — usage records, cycle masks,
// probe-plan words, the string table — is aliased, not copied. Big-endian
// or misaligned buffers fall back to a one-time bulk decode-copy with
// identical semantics.
//
// The arena also persists the compiled probe-plan span arrays
// (internal/probeplan's words/optStart/treeStart/conStart layout), so a
// mapped description skips plan compilation entirely: probeplan.Compile
// adopts the aliased spans via MDES.ArenaPlan.
//
// Section counts are always derived from the checksummed section byte
// lengths — never from free-standing count fields — so corrupted input
// can reject with a positioned error but can never drive allocation
// (the PR 5 capacity-limit discipline, structurally enforced).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"unsafe"

	"mdes/internal/bitset"
)

// arenaMagic identifies the flat arena format; arenaVersion guards layout.
var arenaMagic = [4]byte{'M', 'D', 'A', 'R'}

const arenaVersion = 5

// castagnoli is the CRC-32C table; hash/crc32 computes both CRC-32C and
// CRC-32 (IEEE) with hardware instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header layout (all little-endian):
//
//	[0:4)   magic "MDAR"
//	[4:8)   version u32 (5)
//	[8:16)  totalLen u64 — must equal len(buf)
//	[16:20) CRC-32C (Castagnoli) u32 over buf[24:totalLen]
//	[20:24) CRC-32 (IEEE) u32 over buf[24:totalLen]
//	[24:28) form u32
//	[28:32) packed u32 (0/1)
//	[32:36) numResources u32
//	[36:40) plan rowWords u32
//	[40:44) plan maxTrees u32
//	[44:48) machine-name start (byte offset into the string section)
//	[48:52) machine-name end
//	[52:56) reserved (zero)
//	[56:296) section table: numArenaSections × {offset u64, byteLen u64}
//
// Section offsets are absolute, 8-byte aligned, and empty sections store
// {0, 0}. Everything from byte 24 on is covered by both CRCs, so one
// verification vouches for the scalars, the table, and every payload
// byte. CRC-32C detects every burst error of up to 32 bits; the pair is a
// 64-bit check value, and because the encoding is canonical it doubles as
// the description's fingerprint (arenaCheck).
const (
	arenaHdrFixed   = 56
	arenaHeaderSize = arenaHdrFixed + numArenaSections*16
)

// arenaCheck returns the header's 64-bit check value: CRC-32C ‖ CRC-32.
func arenaCheck(buf []byte) uint64 {
	return uint64(le32(buf[16:]))<<32 | uint64(le32(buf[20:]))
}

// Section identifiers, in file order.
const (
	secStrings   = iota // raw UTF-8 string table, addressed by [start,end) spans
	secResSpans         // resource names: {start,end uint32} per name
	secUsages           // Usage{Time,Res int32} pool, spanned by options
	secMasks            // CycleMask{Time,Word int32, Mask uint64} pool
	secOptions          // arenaOpt records, pool order (IDs implicit)
	secTreeOpts         // uint32 option-pool indices, spanned by trees
	secTrees            // arenaTree records, pool order
	secConTrees         // uint32 tree-pool indices, spanned by constraints
	secCons             // arenaCon records, positional (Constraint.Index)
	secOps              // arenaOp records
	secBypasses         // arenaBypass records, sorted by (From, To)
	secPlanWords        // PlanWord probe words (probeplan layout, verbatim)
	secPlanOpt          // int32 option→word start offsets + sentinel
	secPlanTree         // int32 tree→option start offsets + sentinel
	secPlanCon          // int32 constraint→tree start offsets + sentinel
	numArenaSections
)

var arenaSectionNames = [numArenaSections]string{
	"strings", "resource-spans", "usages", "masks", "options", "tree-options",
	"trees", "constraint-trees", "constraints", "operations", "bypasses",
	"plan-words", "plan-opt-starts", "plan-tree-starts", "plan-con-starts",
}

// arenaElemSizes is the on-disk record size per section; in-memory Go
// layouts match exactly on every supported platform (fixed-width fields in
// natural alignment order), so the only cast precondition checked at run
// time is host endianness and base-pointer alignment.
var arenaElemSizes = [numArenaSections]int{
	1, 8, 8, 16, 28, 4, 28, 4, 16, 24, 12, 16, 4, 4, 4,
}

// arenaSpan is a [Start, End) byte range in the string section.
type arenaSpan struct {
	Start uint32
	End   uint32
}

// arenaOpt flag bits.
const arenaOptHasMasks = 1 // Masks is non-nil (even when empty)

type arenaOpt struct {
	UsageStart uint32
	UsageCount uint32
	MaskStart  uint32
	MaskCount  uint32
	Flags      uint32
	SrcStart   uint32
	SrcEnd     uint32
}

type arenaTree struct {
	NameStart uint32
	NameEnd   uint32
	SrcStart  uint32
	SrcEnd    uint32
	SharedBy  uint32
	OptStart  uint32 // element index into secTreeOpts
	OptCount  uint32
}

type arenaCon struct {
	NameStart uint32
	NameEnd   uint32
	TreeStart uint32 // element index into secConTrees
	TreeCount uint32
}

type arenaOp struct {
	NameStart  uint32
	NameEnd    uint32
	Constraint int32
	Cascaded   int32
	Latency    int32
	SrcTime    int32
}

type arenaBypass struct {
	From int32
	To   int32
	Adj  int32
}

// PlanWord is one packed probe in the persisted probe plan: test Mask
// against word Widx of the reservation row at (issue + Time). It is the
// canonical definition of internal/probeplan's probe word (probeplan
// aliases it), persisted verbatim in the arena so a mapped description
// skips plan compilation.
type PlanWord struct {
	Time int32
	Widx int32
	Mask uint64
}

// ArenaPlan is the persisted probe-plan layout: the exact span arrays
// probeplan.Compile would emit (words/optStart/treeStart/conStart with
// trailing sentinels), aliased into the arena buffer. probeplan adopts it
// via MDES.ArenaPlan instead of re-walking the tree graph.
type ArenaPlan struct {
	RowWords  int
	MaxTrees  int
	Words     []PlanWord
	OptStart  []int32
	TreeStart []int32
	ConStart  []int32
}

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// arenaView reinterprets a validated section as a typed slice: zero-copy
// unsafe cast on aligned little-endian hosts, one-time decode-copy
// otherwise. len(b) is already validated to be a multiple of elemSize.
func arenaView[T any](b []byte, elemSize int, decode func([]byte) T) []T {
	if len(b) == 0 {
		return nil
	}
	n := len(b) / elemSize
	var zero T
	if hostLittleEndian && int(unsafe.Sizeof(zero)) == elemSize &&
		uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(zero)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = decode(b[i*elemSize:])
	}
	return out
}

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
func leI32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

func decSpan(b []byte) arenaSpan { return arenaSpan{le32(b), le32(b[4:])} }
func decUsage(b []byte) Usage    { return Usage{Time: leI32(b), Res: leI32(b[4:])} }
func decMask(b []byte) CycleMask {
	return CycleMask{Time: leI32(b), Word: leI32(b[4:]), Mask: le64(b[8:])}
}
func decOpt(b []byte) arenaOpt {
	return arenaOpt{le32(b), le32(b[4:]), le32(b[8:]), le32(b[12:]), le32(b[16:]), le32(b[20:]), le32(b[24:])}
}
func decTree(b []byte) arenaTree {
	return arenaTree{le32(b), le32(b[4:]), le32(b[8:]), le32(b[12:]), le32(b[16:]), le32(b[20:]), le32(b[24:])}
}
func decCon(b []byte) arenaCon {
	return arenaCon{le32(b), le32(b[4:]), le32(b[8:]), le32(b[12:])}
}
func decOp(b []byte) arenaOp {
	return arenaOp{le32(b), le32(b[4:]), leI32(b[8:]), leI32(b[12:]), leI32(b[16:]), leI32(b[20:])}
}
func decBypass(b []byte) arenaBypass {
	return arenaBypass{leI32(b), leI32(b[4:]), leI32(b[8:])}
}
func decPlanWord(b []byte) PlanWord {
	return PlanWord{Time: leI32(b), Widx: leI32(b[4:]), Mask: le64(b[8:])}
}
func decU32(b []byte) uint32 { return le32(b) }
func decI32(b []byte) int32  { return leI32(b) }

// planRowWords is the reservation-row word count probeplan derives from the
// resource count; the arena header persists it and OpenArena re-derives it
// as a consistency check.
func planRowWords(numResources int) int {
	w := (numResources + bitset.WordBits - 1) / bitset.WordBits
	if w == 0 {
		w = 1
	}
	return w
}

// arenaWriter writes fixed-width little-endian fields at a cursor into a
// pre-sized arena buffer; each section gets its own cursor.
type arenaWriter struct {
	buf []byte
	pos int
}

func (w *arenaWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[w.pos:], v)
	w.pos += 4
}

func (w *arenaWriter) i32(v int32) { w.u32(uint32(v)) }

func (w *arenaWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[w.pos:], v)
	w.pos += 8
}

func (w *arenaWriter) span(sp arenaSpan) {
	w.u32(sp.Start)
	w.u32(sp.End)
}

// arenaStrings interns the description's strings into the string section
// and queues each reference's span in the order the records are written.
type arenaStrings struct {
	buf   []byte
	index map[string]arenaSpan
	spans []arenaSpan
	next  int
}

func (s *arenaStrings) add(str string) {
	sp, ok := s.index[str]
	if !ok {
		sp = arenaSpan{Start: uint32(len(s.buf)), End: uint32(len(s.buf) + len(str))}
		s.buf = append(s.buf, str...)
		s.index[str] = sp
	}
	s.spans = append(s.spans, sp)
}

// take returns the next queued span.
func (s *arenaStrings) take() arenaSpan {
	sp := s.spans[s.next]
	s.next++
	return sp
}

// poolIndex returns x's position in pool: its recorded ID when that is
// current (always, for descriptions the compiler and the opt passes
// produce), else a lookup in an index built on first need.
func poolIndex[T comparable](pool []T, x T, id int, index *map[T]int) (int, bool) {
	if id >= 0 && id < len(pool) && pool[id] == x {
		return id, true
	}
	if *index == nil {
		*index = make(map[T]int, len(pool))
		for i, p := range pool {
			(*index)[p] = i
		}
	}
	i, ok := (*index)[x]
	return i, ok
}

// EncodeArena serializes the description into the flat arena format,
// including the compiled probe-plan spans, and stamps the header's check
// value. The encoding is canonical — pool order is kept, strings are
// interned in first-use order and bypasses are sorted — so OpenArena →
// MDES() → EncodeArena reproduces the input byte for byte, and the check
// value identifies the description (Fingerprint). On a frozen description
// the check value is memoized as its fingerprint.
func (m *MDES) EncodeArena() ([]byte, error) {
	buf, err := m.encodeArena()
	if err == nil && m.Frozen() {
		m.fpOnce.Do(func() { m.fp = arenaCheck(buf) })
	}
	return buf, err
}

// encodeArena sizes every section in one pass over the description,
// allocates the arena once, and writes each section in place. A frozen
// description was validated when it froze and cannot have changed since,
// so only unfrozen ones are validated here.
func (m *MDES) encodeArena() ([]byte, error) {
	if !m.Frozen() {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("lowlevel: arena: encode: %w", err)
		}
	}

	// Pass 1: intern strings and count every section's records.
	nStrs := 1 + len(m.ResourceNames) + len(m.Options) + 2*len(m.Trees) + len(m.Constraints) + len(m.Operations)
	strs := arenaStrings{
		index: make(map[string]arenaSpan, nStrs),
		spans: make([]arenaSpan, 0, nStrs),
	}
	strs.add(m.MachineName)
	for _, n := range m.ResourceNames {
		strs.add(n)
	}
	var n [numArenaSections]int
	for _, o := range m.Options {
		n[secUsages] += len(o.Usages)
		n[secMasks] += len(o.Masks)
		strs.add(o.Src)
	}
	for _, t := range m.Trees {
		n[secTreeOpts] += len(t.Options)
		strs.add(t.Name)
		strs.add(t.Src)
	}
	maxTrees := 0
	for _, c := range m.Constraints {
		n[secConTrees] += len(c.Trees)
		maxTrees = max(maxTrees, len(c.Trees))
		for _, t := range c.Trees {
			n[secPlanOpt] += len(t.Options)
			for _, o := range t.Options {
				n[secPlanWords] += o.NumChecks()
			}
		}
		strs.add(c.Name)
	}
	for _, op := range m.Operations {
		strs.add(op.Name)
	}
	if uint64(len(strs.buf)) > math.MaxUint32 {
		return nil, fmt.Errorf("lowlevel: arena: encode: string table exceeds 4 GiB")
	}
	n[secStrings] = len(strs.buf)
	n[secResSpans] = len(m.ResourceNames)
	n[secOptions] = len(m.Options)
	n[secTrees] = len(m.Trees)
	n[secCons] = len(m.Constraints)
	n[secOps] = len(m.Operations)
	n[secBypasses] = len(m.Bypasses)
	n[secPlanOpt]++ // sentinels
	n[secPlanTree] = n[secConTrees] + 1
	n[secPlanCon] = len(m.Constraints) + 1

	// Lay the non-empty sections out 8-byte aligned after the header.
	var off [numArenaSections]int
	total := arenaHeaderSize
	for i, cnt := range n {
		if cnt == 0 {
			continue
		}
		total = (total + 7) &^ 7
		off[i] = total
		total += cnt * arenaElemSizes[i]
	}
	buf := make([]byte, total)
	w := func(sec int) arenaWriter { return arenaWriter{buf: buf, pos: off[sec]} }

	// Pass 2: write every section in place.
	copy(buf[off[secStrings]:], strs.buf)
	machineName := strs.take()
	resW := w(secResSpans)
	for range m.ResourceNames {
		resW.span(strs.take())
	}

	optW, useW, maskW := w(secOptions), w(secUsages), w(secMasks)
	usages, masks := 0, 0
	for _, o := range m.Options {
		flags, maskCount := uint32(0), uint32(0)
		if o.Masks != nil {
			flags, maskCount = arenaOptHasMasks, uint32(len(o.Masks))
		}
		optW.u32(uint32(usages))
		optW.u32(uint32(len(o.Usages)))
		optW.u32(uint32(masks))
		optW.u32(maskCount)
		optW.u32(flags)
		optW.span(strs.take())
		for _, u := range o.Usages {
			useW.i32(u.Time)
			useW.i32(u.Res)
		}
		for _, cm := range o.Masks {
			maskW.i32(cm.Time)
			maskW.i32(cm.Word)
			maskW.u64(cm.Mask)
		}
		usages += len(o.Usages)
		masks += len(o.Masks)
	}

	var optIdx map[*Option]int
	treeW, treeOptW := w(secTrees), w(secTreeOpts)
	treeOpts := 0
	for _, t := range m.Trees {
		treeW.span(strs.take())
		treeW.span(strs.take())
		treeW.u32(uint32(t.SharedBy))
		treeW.u32(uint32(treeOpts))
		treeW.u32(uint32(len(t.Options)))
		for _, o := range t.Options {
			oi, ok := poolIndex(m.Options, o, o.ID, &optIdx)
			if !ok {
				return nil, fmt.Errorf("lowlevel: arena: encode: tree %q references unpooled option", t.Name)
			}
			treeOptW.u32(uint32(oi))
		}
		treeOpts += len(t.Options)
	}

	var treeIdx map[*Tree]int
	conW, conTreeW := w(secCons), w(secConTrees)
	conTrees := 0
	for _, c := range m.Constraints {
		conW.span(strs.take())
		conW.u32(uint32(conTrees))
		conW.u32(uint32(len(c.Trees)))
		for _, t := range c.Trees {
			ti, ok := poolIndex(m.Trees, t, t.ID, &treeIdx)
			if !ok {
				return nil, fmt.Errorf("lowlevel: arena: encode: constraint %q references unpooled tree", c.Name)
			}
			conTreeW.u32(uint32(ti))
		}
		conTrees += len(c.Trees)
	}

	opW := w(secOps)
	for _, op := range m.Operations {
		opW.span(strs.take())
		opW.i32(int32(op.Constraint))
		opW.i32(int32(op.Cascaded))
		opW.i32(int32(op.Latency))
		opW.i32(int32(op.SrcTime))
	}

	bypKeys := make([][2]int, 0, len(m.Bypasses))
	for k := range m.Bypasses {
		bypKeys = append(bypKeys, k)
	}
	sort.Slice(bypKeys, func(i, j int) bool {
		if bypKeys[i][0] != bypKeys[j][0] {
			return bypKeys[i][0] < bypKeys[j][0]
		}
		return bypKeys[i][1] < bypKeys[j][1]
	})
	bypW := w(secBypasses)
	for _, k := range bypKeys {
		bypW.i32(int32(k[0]))
		bypW.i32(int32(k[1]))
		bypW.i32(int32(m.Bypasses[k]))
	}

	// The probe plan in probeplan.Compile's emission order and word
	// contents: one word per CycleMask when packed, one single-bit word
	// per scalar Usage otherwise, trailing sentinels (cross-checked by
	// probeplan's TestArenaPlanMatchesCompile).
	wordW, pOptW, pTreeW, pConW := w(secPlanWords), w(secPlanOpt), w(secPlanTree), w(secPlanCon)
	words, planOpts, planTrees := 0, 0, 0
	for _, c := range m.Constraints {
		pConW.u32(uint32(planTrees))
		for _, t := range c.Trees {
			pTreeW.u32(uint32(planOpts))
			for _, o := range t.Options {
				pOptW.u32(uint32(words))
				if o.Masks != nil {
					for _, cm := range o.Masks {
						wordW.i32(cm.Time)
						wordW.i32(cm.Word)
						wordW.u64(cm.Mask)
					}
				} else {
					for _, u := range o.Usages {
						wordW.i32(u.Time)
						wordW.i32(u.Res / bitset.WordBits)
						wordW.u64(1 << uint(u.Res%bitset.WordBits))
					}
				}
				words += o.NumChecks()
			}
			planOpts += len(t.Options)
		}
		planTrees += len(c.Trees)
	}
	pConW.u32(uint32(planTrees))
	pTreeW.u32(uint32(planOpts))
	pOptW.u32(uint32(words))

	copy(buf, arenaMagic[:])
	hdr := arenaWriter{buf: buf, pos: 4}
	hdr.u32(arenaVersion)
	hdr.u64(uint64(total))
	hdr.pos = 24
	hdr.u32(uint32(m.Form))
	packed := uint32(0)
	if m.Packed {
		packed = 1
	}
	hdr.u32(packed)
	hdr.u32(uint32(m.NumResources))
	hdr.u32(uint32(planRowWords(m.NumResources)))
	hdr.u32(uint32(maxTrees))
	hdr.span(machineName)
	hdr.pos = arenaHdrFixed
	for i, cnt := range n {
		if cnt > 0 {
			hdr.u64(uint64(off[i]))
			hdr.u64(uint64(cnt * arenaElemSizes[i]))
		} else {
			hdr.pos += 16
		}
	}
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[24:], castagnoli))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[24:]))
	return buf, nil
}

// Arena is a validated, opened flat-arena description. All typed section
// views alias the underlying buffer (on little-endian hosts); the Arena —
// and any mapping backing it — must therefore outlive every MDES
// materialized from it in zero-copy mode.
type Arena struct {
	buf []byte

	machineName  arenaSpan
	form         Form
	packed       bool
	numResources int
	rowWords     int
	maxTrees     int

	strs     []byte
	resSpans []arenaSpan
	usages   []Usage
	masks    []CycleMask
	opts     []arenaOpt
	treeOpts []uint32
	trees    []arenaTree
	conTrees []uint32
	cons     []arenaCon
	ops      []arenaOp
	byps     []arenaBypass

	plan *ArenaPlan

	closer func() error
}

func arenaErrf(format string, args ...any) error {
	return fmt.Errorf("lowlevel: arena: "+format, args...)
}

// OpenArena validates an arena buffer — header, CRC pair, then one
// structural pass over every section — and returns the typed view. After a
// successful open no access path can read out of bounds, so
// materialization performs no further checks. Corrupted input is rejected
// with an error naming the offending section and record; counts derive
// from section byte lengths, so corruption can never cause allocation
// proportional to anything but the actual buffer size.
func OpenArena(buf []byte) (*Arena, error) {
	if len(buf) < arenaHeaderSize {
		return nil, arenaErrf("short buffer: %d bytes, header needs %d", len(buf), arenaHeaderSize)
	}
	if [4]byte(buf[0:4]) != arenaMagic {
		return nil, arenaErrf("bad magic %q at offset 0", buf[0:4])
	}
	if v := le32(buf[4:]); v != arenaVersion {
		return nil, arenaErrf("unsupported version %d at offset 4", v)
	}
	if total := le64(buf[8:]); total != uint64(len(buf)) {
		return nil, arenaErrf("length mismatch at offset 8: header says %d bytes, have %d", total, len(buf))
	}
	if got, want := uint64(crc32.Checksum(buf[24:], castagnoli))<<32|uint64(crc32.ChecksumIEEE(buf[24:])), arenaCheck(buf); got != want {
		return nil, arenaErrf("checksum mismatch at offset 16: computed CRC-32C ‖ CRC-32 %016x, stored %016x", got, want)
	}

	a := &Arena{
		buf:          buf,
		form:         Form(le32(buf[24:])),
		packed:       le32(buf[28:]) != 0,
		numResources: int(le32(buf[32:])),
		rowWords:     int(le32(buf[36:])),
		maxTrees:     int(le32(buf[40:])),
		machineName:  arenaSpan{le32(buf[44:]), le32(buf[48:])},
	}
	if a.form != FormOR && a.form != FormAndOr {
		return nil, arenaErrf("unknown form %d at offset 24", a.form)
	}
	if a.numResources < 0 || a.numResources > 1<<24 {
		return nil, arenaErrf("implausible resource count %d at offset 32", a.numResources)
	}
	if a.rowWords != planRowWords(a.numResources) {
		return nil, arenaErrf("row-word count %d at offset 36 inconsistent with %d resources", a.rowWords, a.numResources)
	}

	var secBytes [numArenaSections][]byte
	for i := 0; i < numArenaSections; i++ {
		off := le64(buf[arenaHdrFixed+i*16:])
		ln := le64(buf[arenaHdrFixed+i*16+8:])
		if ln == 0 {
			continue
		}
		if off < arenaHeaderSize || off%8 != 0 || off > uint64(len(buf)) || ln > uint64(len(buf))-off {
			return nil, arenaErrf("section %s: offset %d length %d outside arena of %d bytes",
				arenaSectionNames[i], off, ln, len(buf))
		}
		if ln%uint64(arenaElemSizes[i]) != 0 {
			return nil, arenaErrf("section %s: length %d not a multiple of record size %d",
				arenaSectionNames[i], ln, arenaElemSizes[i])
		}
		secBytes[i] = buf[off : off+ln]
	}

	a.strs = secBytes[secStrings]
	a.resSpans = arenaView(secBytes[secResSpans], 8, decSpan)
	a.usages = arenaView(secBytes[secUsages], 8, decUsage)
	a.masks = arenaView(secBytes[secMasks], 16, decMask)
	a.opts = arenaView(secBytes[secOptions], 28, decOpt)
	a.treeOpts = arenaView(secBytes[secTreeOpts], 4, decU32)
	a.trees = arenaView(secBytes[secTrees], 28, decTree)
	a.conTrees = arenaView(secBytes[secConTrees], 4, decU32)
	a.cons = arenaView(secBytes[secCons], 16, decCon)
	a.ops = arenaView(secBytes[secOps], 24, decOp)
	a.byps = arenaView(secBytes[secBypasses], 12, decBypass)
	planWords := arenaView(secBytes[secPlanWords], 16, decPlanWord)
	planOpt := arenaView(secBytes[secPlanOpt], 4, decI32)
	planTree := arenaView(secBytes[secPlanTree], 4, decI32)
	planCon := arenaView(secBytes[secPlanCon], 4, decI32)

	if err := a.validate(planWords, planOpt, planTree, planCon); err != nil {
		return nil, err
	}
	if len(planCon) > 0 {
		a.plan = &ArenaPlan{
			RowWords:  a.rowWords,
			MaxTrees:  a.maxTrees,
			Words:     planWords,
			OptStart:  planOpt,
			TreeStart: planTree,
			ConStart:  planCon,
		}
	}
	return a, nil
}

func (a *Arena) checkSpan(what string, i int, sp arenaSpan) error {
	if sp.Start > sp.End || uint64(sp.End) > uint64(len(a.strs)) {
		return arenaErrf("%s %d: string span [%d,%d) outside %d-byte string section",
			what, i, sp.Start, sp.End, len(a.strs))
	}
	return nil
}

// validate runs the one-time structural pass: every span, pool index, and
// plan offset is bounds-checked against the section it addresses, and the
// invariants MDES.Validate would enforce (non-empty trees and constraints,
// OR-form single tree, packed options carry masks) hold structurally —
// FrozenMDES skips Validate entirely on the strength of this pass.
func (a *Arena) validate(planWords []PlanWord, planOpt, planTree, planCon []int32) error {
	if err := a.checkSpan("machine-name", 0, a.machineName); err != nil {
		return err
	}
	for i, sp := range a.resSpans {
		if err := a.checkSpan("resource-name", i, sp); err != nil {
			return err
		}
	}
	for i, o := range a.opts {
		if uint64(o.UsageStart)+uint64(o.UsageCount) > uint64(len(a.usages)) {
			return arenaErrf("option %d: usage span [%d,+%d) outside %d-record usage section",
				i, o.UsageStart, o.UsageCount, len(a.usages))
		}
		if uint64(o.MaskStart)+uint64(o.MaskCount) > uint64(len(a.masks)) {
			return arenaErrf("option %d: mask span [%d,+%d) outside %d-record mask section",
				i, o.MaskStart, o.MaskCount, len(a.masks))
		}
		if o.Flags&arenaOptHasMasks == 0 && o.MaskCount != 0 {
			return arenaErrf("option %d: %d masks but mask flag clear", i, o.MaskCount)
		}
		if a.packed && o.Flags&arenaOptHasMasks == 0 && o.UsageCount > 0 {
			return arenaErrf("option %d: unpacked in packed description", i)
		}
		if err := a.checkSpan("option-src", i, arenaSpan{o.SrcStart, o.SrcEnd}); err != nil {
			return err
		}
	}
	for i, v := range a.treeOpts {
		if uint64(v) >= uint64(len(a.opts)) {
			return arenaErrf("tree-option %d: option index %d outside %d-option pool", i, v, len(a.opts))
		}
	}
	for i, t := range a.trees {
		if err := a.checkSpan("tree-name", i, arenaSpan{t.NameStart, t.NameEnd}); err != nil {
			return err
		}
		if err := a.checkSpan("tree-src", i, arenaSpan{t.SrcStart, t.SrcEnd}); err != nil {
			return err
		}
		if uint64(t.OptStart)+uint64(t.OptCount) > uint64(len(a.treeOpts)) {
			return arenaErrf("tree %d: option span [%d,+%d) outside %d-record tree-option section",
				i, t.OptStart, t.OptCount, len(a.treeOpts))
		}
		if t.OptCount == 0 {
			return arenaErrf("tree %d: no options", i)
		}
	}
	for i, v := range a.conTrees {
		if uint64(v) >= uint64(len(a.trees)) {
			return arenaErrf("constraint-tree %d: tree index %d outside %d-tree pool", i, v, len(a.trees))
		}
	}
	maxTrees := 0
	for i, c := range a.cons {
		if err := a.checkSpan("constraint-name", i, arenaSpan{c.NameStart, c.NameEnd}); err != nil {
			return err
		}
		if uint64(c.TreeStart)+uint64(c.TreeCount) > uint64(len(a.conTrees)) {
			return arenaErrf("constraint %d: tree span [%d,+%d) outside %d-record constraint-tree section",
				i, c.TreeStart, c.TreeCount, len(a.conTrees))
		}
		if c.TreeCount == 0 {
			return arenaErrf("constraint %d: no trees", i)
		}
		if a.form == FormOR && c.TreeCount != 1 {
			return arenaErrf("constraint %d: %d trees in OR-form description", i, c.TreeCount)
		}
		if int(c.TreeCount) > maxTrees {
			maxTrees = int(c.TreeCount)
		}
	}
	if maxTrees != a.maxTrees {
		return arenaErrf("max-trees %d at offset 40 inconsistent with constraints (widest is %d)", a.maxTrees, maxTrees)
	}
	for i, op := range a.ops {
		if err := a.checkSpan("operation-name", i, arenaSpan{op.NameStart, op.NameEnd}); err != nil {
			return err
		}
		if op.Constraint < 0 || int(op.Constraint) >= len(a.cons) {
			return arenaErrf("operation %d: constraint %d outside %d-constraint pool", i, op.Constraint, len(a.cons))
		}
		if op.Cascaded < -1 || int(op.Cascaded) >= len(a.cons) {
			return arenaErrf("operation %d: cascaded constraint %d out of range", i, op.Cascaded)
		}
	}
	for i, bp := range a.byps {
		if bp.From < 0 || int(bp.From) >= len(a.ops) || bp.To < 0 || int(bp.To) >= len(a.ops) {
			return arenaErrf("bypass %d: operation pair (%d,%d) outside %d-operation pool", i, bp.From, bp.To, len(a.ops))
		}
	}

	// Probe-plan spans: either absent entirely or structurally sound —
	// monotonic offset arrays anchored at 0 whose sentinels chain
	// constraint→tree→option→word exactly.
	if len(planCon) == 0 && len(planTree) == 0 && len(planOpt) == 0 && len(planWords) == 0 {
		return nil
	}
	checkStarts := func(name string, s []int32, wantLen int, limit int) error {
		if len(s) != wantLen {
			return arenaErrf("section %s: %d records, want %d", name, len(s), wantLen)
		}
		if s[0] != 0 {
			return arenaErrf("section %s: first offset %d, want 0", name, s[0])
		}
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				return arenaErrf("section %s: offset %d at record %d below predecessor %d", name, s[i], i, s[i-1])
			}
		}
		if int(s[len(s)-1]) != limit {
			return arenaErrf("section %s: final sentinel %d, want %d", name, s[len(s)-1], limit)
		}
		return nil
	}
	if err := checkStarts("plan-con-starts", planCon, len(a.cons)+1, len(planTree)-1); err != nil {
		return err
	}
	if err := checkStarts("plan-tree-starts", planTree, len(a.conTrees)+1, len(planOpt)-1); err != nil {
		return err
	}
	totalOpts := 0
	for _, t := range a.conTrees {
		totalOpts += int(a.trees[t].OptCount)
	}
	if err := checkStarts("plan-opt-starts", planOpt, totalOpts+1, len(planWords)); err != nil {
		return err
	}
	return nil
}

// Bytes returns the raw arena buffer.
func (a *Arena) Bytes() []byte { return a.buf }

// MachineName returns the described machine's name without materializing.
func (a *Arena) MachineName() string { return string(a.strs[a.machineName.Start:a.machineName.End]) }

// Form returns the constraint representation the arena was encoded at.
func (a *Arena) Form() Form { return a.form }

// Packed reports whether the description's options carry cycle masks.
func (a *Arena) Packed() bool { return a.packed }

// NumResources returns the machine's resource count.
func (a *Arena) NumResources() int { return a.numResources }

// Plan returns the persisted probe-plan spans (nil when the arena carries
// none).
func (a *Arena) Plan() *ArenaPlan { return a.plan }

// SetCloser attaches a release function (an mmap unmapper, typically) that
// Close invokes; the cache layer uses it to tie mapping lifetime to the
// arena.
func (a *Arena) SetCloser(f func() error) { a.closer = f }

// Close releases any backing resource attached via SetCloser. The arena
// and every zero-copy MDES view of it are invalid afterwards.
func (a *Arena) Close() error {
	if a.closer == nil {
		return nil
	}
	f := a.closer
	a.closer = nil
	return f()
}

// MDES materializes a deep, mutable copy of the description: nothing
// aliases the arena buffer, so the result is a normal unfrozen MDES that
// re-encodes to the same arena bytes, safe to hand to the opt pipeline or
// tools that outlive the buffer.
func (a *Arena) MDES() *MDES {
	return a.build(true)
}

// FrozenMDES materializes the zero-copy view: usage, mask, and string data
// alias the arena buffer, the persisted probe plan is attached for
// probeplan.Compile to adopt, and the description is marked frozen on the
// strength of OpenArena's validation pass (Validate is not re-run). The
// frozen contract is what makes aliasing safe: the opt pipeline refuses
// frozen descriptions, so nothing can ever write through to a read-only
// mapping. The view's Fingerprint is the header's check value.
func (a *Arena) FrozenMDES() *MDES {
	m := a.build(false)
	m.arenaPlan = a.plan
	m.freezeTrusted()
	m.fpOnce.Do(func() { m.fp = arenaCheck(a.buf) })
	return m
}

func (a *Arena) build(copyData bool) *MDES {
	str := func(sp arenaSpan) string {
		if sp.Start == sp.End {
			return ""
		}
		b := a.strs[sp.Start:sp.End]
		if copyData {
			return string(b)
		}
		return unsafe.String(&b[0], len(b))
	}
	baseUsages, baseMasks := a.usages, a.masks
	if copyData {
		baseUsages = append([]Usage(nil), a.usages...)
		baseMasks = append([]CycleMask(nil), a.masks...)
	}

	m := &MDES{
		MachineName:  str(a.machineName),
		Form:         a.form,
		Packed:       a.packed,
		NumResources: a.numResources,
		ClassIndex:   make(map[string]int, len(a.cons)),
		OpIndex:      make(map[string]int, len(a.ops)),
		Bypasses:     make(map[[2]int]int, len(a.byps)),
	}
	if len(a.resSpans) > 0 {
		m.ResourceNames = make([]string, len(a.resSpans))
		for i, sp := range a.resSpans {
			m.ResourceNames[i] = str(sp)
		}
	}

	// Bulk-allocate each pool once; per-node work is field assignment only.
	optPool := make([]Option, len(a.opts))
	if len(a.opts) > 0 {
		m.Options = make([]*Option, len(a.opts))
	}
	for i, rec := range a.opts {
		o := &optPool[i]
		o.ID = i
		o.Src = str(arenaSpan{rec.SrcStart, rec.SrcEnd})
		if rec.UsageCount > 0 {
			o.Usages = baseUsages[rec.UsageStart : rec.UsageStart+rec.UsageCount]
		}
		if rec.Flags&arenaOptHasMasks != 0 {
			o.Masks = baseMasks[rec.MaskStart : rec.MaskStart+rec.MaskCount]
			if o.Masks == nil {
				o.Masks = []CycleMask{}
			}
		}
		m.Options[i] = o
	}

	treeOptPtrs := make([]*Option, len(a.treeOpts))
	for i, oi := range a.treeOpts {
		treeOptPtrs[i] = &optPool[oi]
	}
	treePool := make([]Tree, len(a.trees))
	if len(a.trees) > 0 {
		m.Trees = make([]*Tree, len(a.trees))
	}
	for i, rec := range a.trees {
		t := &treePool[i]
		t.ID = i
		t.Name = str(arenaSpan{rec.NameStart, rec.NameEnd})
		t.Src = str(arenaSpan{rec.SrcStart, rec.SrcEnd})
		t.SharedBy = int(rec.SharedBy)
		t.Options = treeOptPtrs[rec.OptStart : rec.OptStart+rec.OptCount]
		m.Trees[i] = t
	}

	conTreePtrs := make([]*Tree, len(a.conTrees))
	for i, ti := range a.conTrees {
		conTreePtrs[i] = &treePool[ti]
	}
	conPool := make([]Constraint, len(a.cons))
	if len(a.cons) > 0 {
		m.Constraints = make([]*Constraint, len(a.cons))
	}
	for i, rec := range a.cons {
		c := &conPool[i]
		c.Name = str(arenaSpan{rec.NameStart, rec.NameEnd})
		c.Trees = conTreePtrs[rec.TreeStart : rec.TreeStart+rec.TreeCount]
		c.Index = i
		m.ClassIndex[c.Name] = i
		m.Constraints[i] = c
	}

	opPool := make([]Operation, len(a.ops))
	if len(a.ops) > 0 {
		m.Operations = make([]*Operation, len(a.ops))
	}
	for i, rec := range a.ops {
		op := &opPool[i]
		op.Name = str(arenaSpan{rec.NameStart, rec.NameEnd})
		op.Constraint = int(rec.Constraint)
		op.Cascaded = int(rec.Cascaded)
		op.Latency = int(rec.Latency)
		op.SrcTime = int(rec.SrcTime)
		m.OpIndex[op.Name] = i
		m.Operations[i] = op
	}

	for _, bp := range a.byps {
		m.Bypasses[[2]int{int(bp.From), int(bp.To)}] = int(bp.Adj)
	}
	return m
}
