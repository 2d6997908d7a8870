package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"relatrust"

	"relatrust/internal/jobs"
)

// ErrorBody is the structured JSON error envelope of every non-2xx
// response and every in-band stream error frame.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure. Code is stable and machine-matchable —
// one code per facade sentinel — while Message is human-readable and may
// change. The optional fields carry the typed wrappers' payloads.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// FD is the offending dependency (schema_mismatch only).
	FD string `json:"fd,omitempty"`
	// Tau is the infeasible budget (no_repair_in_budget only).
	Tau *int `json:"tau,omitempty"`
	// Visited is the search effort at the abort (max_visited only).
	Visited int `json:"visited,omitempty"`
}

// Error codes. The facade sentinels each map to a distinct (code, HTTP
// status) pair; request-shape failures get their own codes so clients can
// tell a malformed request from an infeasible one.
const (
	codeBadRequest       = "bad_request"
	codeBadCSV           = "bad_csv"
	codeBadFDs           = "bad_fds"
	codeUnknownDataset   = "unknown_dataset"
	codeDatasetExists    = "dataset_exists"
	codeUnknownJob       = "unknown_job"
	codeDatasetDeleted   = "dataset_deleted"
	codeDatasetMutated   = "dataset_mutated"
	codeInvalidOps       = "invalid_ops"
	codeEmptyFDSet       = "empty_fd_set"
	codeEmptyInstance    = "empty_instance"
	codeSchemaMismatch   = "schema_mismatch"
	codeNoRepairInBudget = "no_repair_in_budget"
	codeMaxVisited       = "max_visited"
	codeDeadline         = "deadline_exceeded"
	codeCancelled        = "cancelled"
	codeOverloaded       = "overloaded"
	codeShuttingDown     = "shutting_down"
	codeStorage          = "storage"
	codeInternalPanic    = "internal_panic"
	codeInternal         = "internal"
)

// statusClientClosedRequest is nginx's conventional status for a request
// the client abandoned; no one receives the body, but the access log and
// the in-band stream frame stay truthful.
const statusClientClosedRequest = 499

// mapError translates an error out of the relatrust facade (or the
// request's context) into its HTTP status and wire body. Every facade
// sentinel maps to a distinct pair:
//
//	*requestError       → its own status and code (a malformed request)
//	ErrEmptyFDSet       → 400 empty_fd_set
//	ErrEmptyInstance    → 422 empty_instance
//	ErrSchemaMismatch   → 422 schema_mismatch (carries the FD)
//	AttrsRangeError     → 422 schema_mismatch (a discovery attrs restriction
//	                      outside the schema)
//	ErrNoRepairInBudget → 409 no_repair_in_budget (carries τ)
//	ErrMaxVisited       → 503 max_visited (carries the visited count)
//	DeadlineExceeded    → 504 deadline_exceeded
//	Canceled            → 499 cancelled
//	ErrPanic            → 500 internal_panic (stack in the log only)
//
// The schema renders the mismatching FD with attribute names when the
// dataset is known; pass nil otherwise. Unrecognized errors are 500
// internal.
func mapError(err error, schema *relatrust.Schema) (int, ErrorBody) {
	detail := ErrorDetail{Message: err.Error()}
	var status int
	var re *requestError
	var sm *relatrust.SchemaMismatchError
	var ar *relatrust.AttrsRangeError
	var be *relatrust.BudgetError
	var mv *relatrust.MaxVisitedError
	switch {
	case errors.As(err, &re):
		status, detail.Code = re.status, re.code
	case errors.As(err, &ar):
		// A discovery attrs restriction referencing a column the schema does
		// not have — the same shape mismatch class as a misfit FD.
		status, detail.Code = http.StatusUnprocessableEntity, codeSchemaMismatch
	case errors.As(err, &sm):
		status, detail.Code = http.StatusUnprocessableEntity, codeSchemaMismatch
		if schema != nil && sm.FD.RHS < schema.Width() && sm.FD.LHS.Max() < schema.Width() {
			detail.FD = sm.FD.Format(schema)
		} else {
			detail.FD = sm.FD.String()
		}
	case errors.As(err, &be):
		status, detail.Code = http.StatusConflict, codeNoRepairInBudget
		tau := be.Tau
		detail.Tau = &tau
	case errors.As(err, &mv):
		status, detail.Code = http.StatusServiceUnavailable, codeMaxVisited
		detail.Visited = mv.Stats.Visited
	case errors.Is(err, jobs.ErrDatasetMutated):
		// A recovered job whose dataset moved to a new generation: the
		// checkpointed frontier answers for rows that no longer exist.
		// 409 — resubmit the spec to sweep the current generation.
		status, detail.Code = http.StatusConflict, codeDatasetMutated
	case errors.Is(err, relatrust.ErrEmptyFDSet):
		status, detail.Code = http.StatusBadRequest, codeEmptyFDSet
	case errors.Is(err, relatrust.ErrEmptyInstance):
		status, detail.Code = http.StatusUnprocessableEntity, codeEmptyInstance
	case errors.Is(err, context.DeadlineExceeded):
		status, detail.Code = http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, context.Canceled):
		status, detail.Code = statusClientClosedRequest, codeCancelled
	case errors.Is(err, relatrust.ErrPanic):
		// A recovered panic: the sweep failed, the process and session did
		// not. The stack went to the log, not the wire.
		status, detail.Code = http.StatusInternalServerError, codeInternalPanic
	default:
		status, detail.Code = http.StatusInternalServerError, codeInternal
	}
	return status, ErrorBody{Error: detail}
}

// requestError is a client mistake caught before any sweep work: a
// malformed request, an unknown dataset, unparsable FDs. It carries its
// own status and code, which mapError passes through.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// badRequest is the requestError of a malformed request.
func badRequest(format string, args ...any) error {
	return &requestError{http.StatusBadRequest, codeBadRequest, fmt.Sprintf(format, args...)}
}

// writeError sends the structured error response for err (see mapError;
// schema renders a mismatching FD, nil when the dataset is unknown).
func writeError(w http.ResponseWriter, err error, schema *relatrust.Schema) {
	status, body := mapError(err, schema)
	writeJSON(w, status, body)
}

// writeErrorCode sends a structured error response with no underlying
// error value.
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
