package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/sdk/mdesclient"
)

// Request-decoder capacity limits. The HMDES analyzer already bounds how
// much memory one description can demand (maxResourceInstances,
// per-tree option caps); these bounds do the same job one layer up, at
// the HTTP boundary, so a hostile request is rejected by arithmetic on
// counts before any allocation proportional to them happens. Each block
// is also held to the per-block bounds of internal/ir (ir.MaxOpsPerBlock
// and the operand bounds of ir.CheckOperation), which the MDTR recording
// decoder shares.
const (
	// MaxBlocksPerRequest bounds one schedule request's batch size.
	MaxBlocksPerRequest = 4096
	// MaxOpsPerRequest bounds the total operation count of a request.
	MaxOpsPerRequest = 1 << 18
)

// wireError is a decoder rejection carrying the structured error code the
// handler should answer with.
type wireError struct {
	code string
	msg  string
}

func (e *wireError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &wireError{code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

// ParseUploadRequest decodes and validates an upload request body. It
// never panics on arbitrary input (FuzzServerRequest's contract): every
// rejection is a *wireError and every acceptance satisfies the
// documented invariants (exactly one of Source/SourceHash, known form
// and level names, well-formed hash).
func ParseUploadRequest(data []byte) (*mdesclient.UploadRequest, error) {
	var req mdesclient.UploadRequest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed upload request: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after upload request")
	}
	hasSource, hasHash := req.Source != "", req.SourceHash != ""
	if hasSource == hasHash {
		return nil, badRequest("exactly one of source and source_hash must be set")
	}
	if hasHash {
		if len(req.SourceHash) != 16 || strings.Trim(req.SourceHash, "0123456789abcdef") != "" {
			return nil, badRequest("source_hash %q is not a 16-hex-digit content address", req.SourceHash)
		}
	}
	if req.Form == "" {
		req.Form = "andor"
	}
	if req.Level == "" {
		req.Level = "full"
	}
	return &req, nil
}

// ParseScheduleRequest decodes and validates a schedule request body.
// Accepted requests satisfy every decoder limit, so converting them to
// scheduler IR (ToBlocks) is panic-free by construction.
func ParseScheduleRequest(data []byte) (*mdesclient.ScheduleRequest, error) {
	var req mdesclient.ScheduleRequest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed schedule request: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after schedule request")
	}
	if len(req.Blocks) == 0 {
		return nil, badRequest("schedule request carries no blocks")
	}
	if len(req.Blocks) > MaxBlocksPerRequest {
		return nil, badRequest("%d blocks exceed the per-request cap of %d", len(req.Blocks), MaxBlocksPerRequest)
	}
	totalOps := 0
	for bi := range req.Blocks {
		ops := req.Blocks[bi].Ops
		if len(ops) == 0 {
			return nil, badRequest("block %d is empty", bi)
		}
		if len(ops) > ir.MaxOpsPerBlock {
			return nil, badRequest("block %d: %d ops exceed the per-block cap of %d", bi, len(ops), ir.MaxOpsPerBlock)
		}
		totalOps += len(ops)
		if totalOps > MaxOpsPerRequest {
			return nil, badRequest("request exceeds the total-operation cap of %d", MaxOpsPerRequest)
		}
		for oi := range ops {
			op := &ops[oi]
			if err := ir.CheckOperation(op.Opcode, op.Srcs, op.Dests); err != nil {
				return nil, badRequest("block %d op %d: %v", bi, oi, err)
			}
			switch op.Mem {
			case "", "load", "store":
			default:
				return nil, badRequest("block %d op %d: unknown mem kind %q", bi, oi, op.Mem)
			}
		}
	}
	return &req, nil
}

// ToBlocks converts a validated schedule request to scheduler IR.
func ToBlocks(req *mdesclient.ScheduleRequest) []*ir.Block {
	blocks := make([]*ir.Block, len(req.Blocks))
	for bi := range req.Blocks {
		b := &ir.Block{Ops: make([]*ir.Operation, len(req.Blocks[bi].Ops))}
		for oi := range req.Blocks[bi].Ops {
			w := &req.Blocks[bi].Ops[oi]
			op := &ir.Operation{
				Opcode:   w.Opcode,
				Branch:   w.Branch,
				Cascaded: w.Cascaded,
			}
			if len(w.Dests) > 0 {
				op.Dests = append([]int(nil), w.Dests...)
			}
			if len(w.Srcs) > 0 {
				op.Srcs = append([]int(nil), w.Srcs...)
			}
			switch w.Mem {
			case "load":
				op.Mem = ir.MemLoad
			case "store":
				op.Mem = ir.MemStore
			}
			b.Ops[oi] = op
		}
		b.Renumber()
		blocks[bi] = b
	}
	return blocks
}

// FromIR converts scheduler IR to wire blocks (the soak client's path).
func FromIR(blocks []*ir.Block) []mdesclient.Block {
	out := make([]mdesclient.Block, len(blocks))
	for bi, b := range blocks {
		wb := mdesclient.Block{Ops: make([]mdesclient.Op, len(b.Ops))}
		for oi, op := range b.Ops {
			w := mdesclient.Op{
				Opcode:   op.Opcode,
				Dests:    op.Dests,
				Srcs:     op.Srcs,
				Branch:   op.Branch,
				Cascaded: op.Cascaded,
			}
			switch op.Mem {
			case ir.MemLoad:
				w.Mem = "load"
			case ir.MemStore:
				w.Mem = "store"
			}
			wb.Ops[oi] = w
		}
		out[bi] = wb
	}
	return out
}

// writeError answers with the daemon's structured JSON error shape.
func writeError(w http.ResponseWriter, status int, code, msg string, diags []mdesclient.Diagnostic) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(mdesclient.ErrorBody{Code: code, Error: msg, Diagnostics: diags})
}

// diagnosticsOf extracts positioned analyzer/parser errors for the
// structured "bad_source" response. The hmdes pipeline reports exactly
// one positioned error per failed load.
func diagnosticsOf(err error) []mdesclient.Diagnostic {
	var herr *hmdes.Error
	if errors.As(err, &herr) {
		return []mdesclient.Diagnostic{{File: herr.File, Line: herr.Line, Col: herr.Col, Msg: herr.Msg}}
	}
	return nil
}
