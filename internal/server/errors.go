package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"pdpasim/internal/runqueue"
	"pdpasim/internal/wire"
)

// WriteError answers with the v1 error envelope (see internal/wire).
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	writeEnvelope(w, wire.Error{Status: status, Code: code, Message: err.Error()})
}

// WriteRetryError answers with the error envelope plus a retry hint, in
// both the Retry-After header and the body.
func WriteRetryError(w http.ResponseWriter, status int, code string, err error, retryAfterSeconds int) {
	writeEnvelope(w, wire.Error{Status: status, Code: code, Message: err.Error(),
		RetryAfterSeconds: max(retryAfterSeconds, 1)})
}

func writeEnvelope(w http.ResponseWriter, e wire.Error) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	WriteJSON(w, e.Status, wire.ErrorResponse{Error: e})
}

// writeError maps a backend error onto the envelope. A *wire.Error — a
// node's answer relayed by the coordinator, or a backend's own — passes
// through as it is; the pool's sentinels map to their codes, with sheds
// carrying the pool's backlog estimate as the retry hint; anything else is
// a bad request.
func writeError(w http.ResponseWriter, err error) {
	var env *wire.Error
	var overload *runqueue.OverloadError
	switch {
	case errors.As(err, &env):
		writeEnvelope(w, *env)
	case errors.As(err, &overload): // before ErrQueueFull: OverloadError matches both
		WriteRetryError(w, http.StatusTooManyRequests, wire.CodeOverloaded, err,
			int(overload.RetryAfter/time.Second))
	case errors.Is(err, runqueue.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, err)
	case errors.Is(err, runqueue.ErrQueueFull):
		WriteRetryError(w, http.StatusTooManyRequests, wire.CodeQueueFull, err, 1)
	case errors.Is(err, runqueue.ErrNotFound):
		WriteError(w, http.StatusNotFound, wire.CodeNotFound, err)
	default:
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, err)
	}
}

// WriteJSON writes v as indented JSON with the given status — the response
// framing every v1 endpoint uses.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
