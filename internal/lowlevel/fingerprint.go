package lowlevel

import "fmt"

// Fingerprint returns the description's content identity: the 64-bit
// check value (CRC-32C ‖ CRC-32) of its canonical arena encoding, rendered
// as 16 hex digits. Two descriptions compiled from the same source at the
// same form and optimization level hash identically, so the fingerprint
// keys content-addressed artifacts: trace recordings (internal/trace),
// flight dumps, profiles and BENCH_*.json perf records all carry it, and
// replay refuses a description whose fingerprint drifted from the
// recording's. It is an identity, not a cryptographic digest.
//
// A frozen arena view answers from its header. Any other frozen
// description runs one EncodeArena on first use and memoizes the result,
// so concurrent callers share one computation. An unfrozen description
// may still change, so each call encodes it afresh.
func (m *MDES) Fingerprint() (string, error) {
	if !m.Frozen() {
		buf, err := m.encodeArena()
		if err != nil {
			return "", fmt.Errorf("lowlevel: fingerprint: %w", err)
		}
		return formatFingerprint(arenaCheck(buf)), nil
	}
	m.fpOnce.Do(func() {
		buf, err := m.encodeArena()
		if err != nil {
			m.fpErr = fmt.Errorf("lowlevel: fingerprint: %w", err)
			return
		}
		m.fp = arenaCheck(buf)
	})
	if m.fpErr != nil {
		return "", m.fpErr
	}
	return formatFingerprint(m.fp), nil
}

func formatFingerprint(check uint64) string { return fmt.Sprintf("%016x", check) }
