package serve

import (
	"context"
	"encoding/json"
	"time"

	"perflow"
	"perflow/internal/core"
	"perflow/internal/lint"
)

// SubmitRequest is the body of POST /v1/jobs: the canonical
// perflow.AnalysisRequest (the exact options surface of the CLI, gate and
// diff front ends — program, scales, faults, policies) plus serve-only
// delivery options.
type SubmitRequest struct {
	perflow.AnalysisRequest

	// TimeoutMS caps the job's run time; 0 uses the server default, and
	// values above the server default are clamped to it. Delivery-only, so
	// excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// withDefaults fills the CLI-equivalent defaults.
func (r SubmitRequest) withDefaults() SubmitRequest {
	r.AnalysisRequest = r.AnalysisRequest.WithDefaults()
	return r
}

// Key returns the content address of the request: the canonical
// perflow.AnalysisRequest cache key. Parallelism and TimeoutMS are
// deliberately excluded — sharded PAG construction is byte-identical at any
// worker count, so they cannot change the result.
func (r SubmitRequest) Key() string {
	return r.CacheKey()
}

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// JobResult is the payload of a finished job.
type JobResult struct {
	// Report is the analysis report text, byte-identical to the equivalent
	// CLI invocation's stdout.
	Report string `json:"report"`
	// Sets holds the highlighted result set(s) as JSON graphs (empty for
	// report-only analyses such as profile and timeline).
	Sets []*core.JSONReport `json:"sets,omitempty"`
	// Trace is the per-pass execution trace of the dataflow engine (nil
	// for analyses that do not run through it).
	Trace *core.JSONTrace `json:"trace,omitempty"`
	// ElapsedUS is the wall-clock run cost of the original (uncached)
	// execution, microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Diff is the differential report of a two-run request (ranks2 set);
	// nil otherwise.
	Diff *perflow.DiffReport `json:"diff,omitempty"`
	// Violations are the request's policy violations, always present:
	// empty when no policy was submitted or every rule passed.
	Violations []perflow.PolicyViolation `json:"violations"`
	// GateFailed reports an error-severity violation: the analysis itself
	// succeeded — the result stays cacheable — but the submitted policy
	// rejected it, the serve-side analogue of `pflow gate`'s exit code 3.
	GateFailed bool `json:"gate_failed,omitempty"`
	// Prediction is the rendered "-- static prediction --" section: the
	// symbolic dataflow engine's static communication matrix and cost
	// model cross-checked against the collected run. It is delivered here
	// rather than inlined in Report because AnalysisRequest.Predict is
	// cache-key-neutral: the section is a pure function of key fields, so
	// it is computed for every job and the cached Report bytes stay
	// identical whether or not the submitter asked for it. Empty when the
	// engine cannot summarize the program exactly.
	Prediction string `json:"prediction,omitempty"`
	// Attempts is the job's failed-attempt history: one record per
	// execution attempt that did NOT produce this result, oldest first. A
	// job that succeeds on its first attempt has none, so the cached bytes
	// of a cleanly-executed job are identical with or without the retry
	// engine. The audit loop's drift comparison ignores this field — a
	// result reached after retries is not drift.
	Attempts []AttemptRecord `json:"attempts,omitempty"`
	// Degraded reports the result was cached while the store circuit
	// breaker was open: it lives in the in-memory fallback and may not
	// survive a restart until the breaker closes and flushes. Ignored by
	// the audit drift comparison.
	Degraded bool `json:"degraded,omitempty"`
}

// AttemptRecord is one failed execution attempt in a job's retry history.
type AttemptRecord struct {
	// Attempt is the 1-based attempt number.
	Attempt int `json:"attempt"`
	// Class is the failure classification (transient, timeout, canceled,
	// permanent) that drove the retry decision.
	Class string `json:"class"`
	// Error is the attempt's failure message.
	Error string `json:"error"`
	// ElapsedUS is how long the attempt ran, microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// BackoffUS is the jittered delay slept before the next attempt,
	// microseconds (0 on the final attempt of a failed job).
	BackoffUS int64 `json:"backoff_us,omitempty"`
}

// Job is one submitted analysis with its lifecycle state. Mutable fields
// are guarded by the owning server's mutex.
type Job struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Tenant names the submitting tenant; with auth enabled, only that
	// tenant can see or cancel the job.
	Tenant string `json:"tenant"`

	Req SubmitRequest `json:"request"`

	state      State
	err        string
	cached     bool
	resultJSON []byte // marshaled JobResult, set when state == StateDone

	// attempts accumulates failed execution attempts (the retry history);
	// embedded into the result on completion.
	attempts []AttemptRecord
	// recovered marks a job re-enqueued from the journal after a restart.
	recovered bool
	// quotaCharged marks a job that holds a tenant in-flight slot;
	// recovered jobs don't (their slot died with the old process).
	quotaCharged bool
	// seq is the server-wide submission sequence the job ID was minted
	// from, journaled so a restarted server resumes numbering above it.
	seq uint64

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel    context.CancelFunc // cancels the job's run context
	runParent context.Context    // parent context the worker runs under
	done      chan struct{}      // closed on any terminal state
}

// terminalLocked reports whether the job reached a terminal state. Caller
// holds the owning server's mutex.
func (j *Job) terminalLocked() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// marshalResult renders a JobResult to the bytes stored in the cache and
// embedded in job responses.
func marshalResult(r *JobResult) ([]byte, error) {
	return json.Marshal(r)
}

// JobView is the wire representation of a job for submit/list/get/cancel
// responses. Result is embedded pre-marshaled (it is stored that way in the
// cache) and only present on done jobs fetched with their result.
type JobView struct {
	ID          string          `json:"id"`
	Key         string          `json:"key"`
	Tenant      string          `json:"tenant,omitempty"`
	State       State           `json:"state"`
	Cached      bool            `json:"cached,omitempty"`
	Recovered   bool            `json:"recovered,omitempty"`
	Error       string          `json:"error,omitempty"`
	Attempts    []AttemptRecord `json:"attempts,omitempty"`
	Request     SubmitRequest   `json:"request"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Machine-readable error codes of the /v1 error envelope. Clients branch
// on these, never on message text.
const (
	ErrCodeBadRequest      = "bad_request"         // 400: malformed body
	ErrCodeUnauthorized    = "unauthorized"        // 401: missing/unknown API key
	ErrCodeInvalidRequest  = "invalid_request"     // 422: shape/limits/faults/policy
	ErrCodeLintRejected    = "lint_rejected"       // 422: static diagnostics gate
	ErrCodeQueueFull       = "queue_full"          // 429: job queue backpressure
	ErrCodeQuotaExceeded   = "quota_exceeded"      // 429: tenant in-flight quota
	ErrCodeDeadline        = "deadline_unmeetable" // 429: backlog exceeds the request's timeout budget
	ErrCodeDraining        = "draining"            // 503
	ErrCodeNotFound        = "not_found"           // 404
	ErrCodeAlreadyFinished = "already_finished"    // 409
	ErrCodeInternal        = "internal"            // 500
)

// apiError is the single versioned error envelope of every non-2xx /v1
// response: a machine-readable code, a human-readable message, and zero or
// more structured details.
type apiError struct {
	Code    string        `json:"code"`
	Message string        `json:"message"`
	Details []errorDetail `json:"details,omitempty"`
}

// errorDetail is one structured item inside an error envelope. Kind says
// which payload field is set: "lint" carries a static diagnostic, "policy"
// a per-rule parse problem.
type errorDetail struct {
	Kind string `json:"kind"`
	// Code is the detail's own machine code (a lint code such as PF010, or
	// the offending policy rule's fact name).
	Code string `json:"code,omitempty"`
	// Message is the detail's human-readable explanation.
	Message string `json:"message,omitempty"`
	// Diagnostic is the full lint finding for kind "lint".
	Diagnostic *lint.Diagnostic `json:"diagnostic,omitempty"`
}

// lintDetails wraps lint findings as envelope details.
func lintDetails(diags []lint.Diagnostic) []errorDetail {
	out := make([]errorDetail, 0, len(diags))
	for i := range diags {
		d := diags[i]
		out = append(out, errorDetail{Kind: "lint", Code: d.Code, Message: d.Message, Diagnostic: &d})
	}
	return out
}
