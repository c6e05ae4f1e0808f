package stats

// Phase identifies which consumer of the compiled MDES performed an
// instrumented operation. It lives here, below every observation view,
// so the views (metrics, profile, flight recorder, tracer) and the
// buffer that feeds them can all name it.
type Phase uint8

// Scheduler phases.
const (
	// PhaseList is the forward cycle-driven list scheduler.
	PhaseList Phase = iota
	// PhaseBackward is the backward (bottom-up) list scheduler.
	PhaseBackward
	// PhaseOpDriven is the operation-driven list scheduler.
	PhaseOpDriven
	// PhaseModulo is the iterative modulo scheduler.
	PhaseModulo
	// PhaseQuery is the execution-constraint query interface.
	PhaseQuery
	// NumPhases is the number of phases (for sizing arrays).
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseList:     "list",
	PhaseBackward: "backward",
	PhaseOpDriven: "opdriven",
	PhaseModulo:   "modulo",
	PhaseQuery:    "query",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}
