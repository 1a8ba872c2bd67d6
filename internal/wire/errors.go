package wire

// The unified v1 error envelope. Every non-2xx JSON response has the shape
//
//	{"error": {"code": "...", "message": "...", "retry_after_seconds": N}}
//
// where code is a stable machine-readable discriminator (the message is
// free-form and may change between releases) and retry_after_seconds is
// present exactly when the request is worth retrying after a pause — it
// mirrors the Retry-After header on the same response.

import "fmt"

// Stable error codes, one per way a v1 request can fail.
const (
	// CodeInvalidRequest: the request was malformed — bad JSON, unknown
	// fields, an invalid spec, or bad query parameters (400).
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound: no run or sweep with that ID (404).
	CodeNotFound = "not_found"
	// CodePayloadTooLarge: the request body exceeded the submission size
	// cap (413).
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: the submission was shed by the admission controller's
	// backlog estimate; retry_after_seconds carries its estimate (429).
	CodeOverloaded = "overloaded"
	// CodeQueueFull: the hard queue bound rejected the submission (429).
	CodeQueueFull = "queue_full"
	// CodeDraining: the daemon is shutting down and not accepting work (503).
	CodeDraining = "draining"
	// CodeUnavailable: an injected fault or other transient server-side
	// condition failed the request (503).
	CodeUnavailable = "unavailable"
	// CodeInternal: a handler bug; the panic was recovered and counted (500).
	CodeInternal = "internal"
	// CodeIncompatibleRevision: a fleet node tried to register with a
	// coordinator speaking a different API revision (400).
	CodeIncompatibleRevision = "incompatible_revision"
	// CodeNoHealthyNodes: the coordinator has no healthy node to place the
	// run on — every node is cordoned, draining, unhealthy, or gone (503).
	CodeNoHealthyNodes = "no_healthy_nodes"
	// CodeNodeUnreachable: the node owning the requested resource did not
	// answer the coordinator's proxied request (502).
	CodeNodeUnreachable = "node_unreachable"
)

// Error is the envelope's payload, and the Go error for a response that
// carries it. Status is the HTTP status it travels with; it is not part of
// the JSON body.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds suggests a pause before retrying; 0 (omitted) means
	// the error is not retryable-after-a-wait.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("pdpad: %s (%d): %s", e.Code, e.Status, e.Message)
}

// IsShed reports whether the error is an admission rejection worth
// retrying after the advertised pause (a 429 shed).
func (e *Error) IsShed() bool { return e.Status == 429 }

// Errorf builds an envelope error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorResponse is the wire form of every non-2xx JSON response.
type ErrorResponse struct {
	Error Error `json:"error"`
}
