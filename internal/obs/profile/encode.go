package profile

import (
	"encoding/binary"
	"fmt"

	"mdes/internal/frame"
)

// The MDPF artifact persists one Snapshot as a self-delimiting binary
// blob in the framing the MDTR trace format (internal/trace) also uses
// (internal/frame): magic + version, uvarint-framed body, FNV-64a
// trailer — big-endian here — whose hex form is the artifact's content
// address. The meta block pins
// the description fingerprint and workload, so an MDPF file names exactly
// which (description, workload) pair produced its evidence.

// mdpfMagic identifies an mdes profile artifact.
var mdpfMagic = [4]byte{'M', 'D', 'P', 'F'}

// Version is the MDPF format version this package reads and writes.
const Version = 1

// Encode serializes the snapshot, returning the bytes and the content
// address (FNV-64a of the encoded stream, the trailer checksum).
func Encode(s *Snapshot) ([]byte, string, error) {
	var e frame.Encoder
	e.Write(mdpfMagic[:])
	e.Uvarint(Version)
	e.Str(s.Meta.Machine)
	e.Str(s.Meta.MachineHash)
	e.Str(s.Meta.Checker)
	e.Str(s.Meta.Workload)
	e.Varint(s.Merges)
	e.Uvarint(uint64(len(s.Constraints)))
	for _, c := range s.Constraints {
		e.Str(c.Name)
		e.Varint(c.Attempts)
		e.Varint(c.Conflicts)
		e.Uvarint(uint64(len(c.Trees)))
		for _, t := range c.Trees {
			e.Str(t.Name)
			e.Varint(t.FirstBlock)
			e.Uvarint(uint64(len(t.Options)))
			for _, o := range t.Options {
				e.Str(o.Src)
				e.Varint(o.Selected)
				e.Varint(o.Blocked)
			}
		}
	}
	e.Uvarint(uint64(len(s.Resources)))
	for _, r := range s.Resources {
		e.Str(r.Resource)
		e.Varint(r.Conflicts)
	}
	sum := e.Seal(binary.BigEndian)
	return e.Buf, fmt.Sprintf("%016x", sum), nil
}

// Decode decodes one MDPF artifact, verifying magic, version, and the
// FNV-64a trailer, and returns the snapshot plus its content address.
func Decode(data []byte) (*Snapshot, string, error) {
	if len(data) < len(mdpfMagic)+1+8 {
		return nil, "", fmt.Errorf("profile: artifact too short (%d bytes)", len(data))
	}
	body, stored, sum := frame.Split(data, binary.BigEndian)
	if stored != sum {
		return nil, "", fmt.Errorf("profile: checksum mismatch (stored %016x, computed %016x)", stored, sum)
	}
	d := frame.NewDecoder(body)
	var mg [4]byte
	d.Read(mg[:])
	if mg != mdpfMagic {
		return nil, "", fmt.Errorf("profile: bad magic %q", mg)
	}
	if v := d.Uvarint(); d.Err == nil && v != Version {
		return nil, "", fmt.Errorf("profile: unsupported version %d", v)
	}
	s := &Snapshot{}
	s.Meta.Machine = d.Str()
	s.Meta.MachineHash = d.Str()
	s.Meta.Checker = d.Str()
	s.Meta.Workload = d.Str()
	s.Merges = d.Varint()
	nc := d.Count()
	if d.Err == nil && nc > 0 {
		s.Constraints = make([]ConstraintProfile, 0, nc)
	}
	for i := 0; i < nc && d.Err == nil; i++ {
		var c ConstraintProfile
		c.Name = d.Str()
		c.Attempts = d.Varint()
		c.Conflicts = d.Varint()
		nt := d.Count()
		if d.Err == nil && nt > 0 {
			c.Trees = make([]TreeProfile, 0, nt)
		}
		for j := 0; j < nt && d.Err == nil; j++ {
			var t TreeProfile
			t.Name = d.Str()
			t.FirstBlock = d.Varint()
			no := d.Count()
			if d.Err == nil && no > 0 {
				t.Options = make([]OptionProfile, 0, no)
			}
			for k := 0; k < no && d.Err == nil; k++ {
				var o OptionProfile
				o.Src = d.Str()
				o.Selected = d.Varint()
				o.Blocked = d.Varint()
				t.Options = append(t.Options, o)
			}
			c.Trees = append(c.Trees, t)
		}
		s.Constraints = append(s.Constraints, c)
	}
	nr := d.Count()
	if d.Err == nil && nr > 0 {
		s.Resources = make([]ResourceProfile, 0, nr)
	}
	for i := 0; i < nr && d.Err == nil; i++ {
		var r ResourceProfile
		r.Resource = d.Str()
		r.Conflicts = d.Varint()
		s.Resources = append(s.Resources, r)
	}
	if d.Err != nil {
		return nil, "", fmt.Errorf("profile: corrupt artifact: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, "", fmt.Errorf("profile: %d trailing bytes after artifact", d.Rest())
	}
	return s, fmt.Sprintf("%016x", sum), nil
}
