package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"
)

// TraceHeader is the job-tracing header: a client may send one on
// submit (X-MBE-Trace: <id>) to stamp the whole job lifecycle with its
// own correlation id; otherwise the daemon mints one. Every response —
// including 429 sheds and NDJSON result streams — echoes it back, the
// id is persisted in the job manifest so it survives kill -9, and every
// structured log event for the job carries it as trace_id.
const TraceHeader = "X-MBE-Trace"

// maxTraceLen bounds accepted client trace ids; anything longer (or
// containing non-token characters) is replaced with a fresh id rather
// than propagated into logs and manifests.
const maxTraceLen = 64

// NewTraceID mints a fresh random trace id ("t" + 16 hex chars).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to a fixed id
		// rather than plumbing an error through every submit path.
		return "t0000000000000000"
	}
	return "t" + hex.EncodeToString(b[:])
}

// sanitizeTrace validates a client-supplied trace id: printable
// URL/log-safe characters only, bounded length. Returns "" when the
// value cannot be propagated as-is.
func sanitizeTrace(s string) string {
	if s == "" || len(s) > maxTraceLen {
		return ""
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.' || r == ':' || r == '/':
		default:
			return ""
		}
	}
	return s
}

type traceKey struct{}

// traceFrom extracts the request's trace id stashed by the instrument
// middleware; "" outside an instrumented request.
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// --- slog plumbing ---------------------------------------------------

// logger resolves the Config's logging surface into one *slog.Logger:
// Logger, or a discarding one when it is nil. Every operational event in
// the daemon goes through this — there is no second, ad-hoc log path.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	// slog.DiscardHandler needs Go 1.24; go.mod declares 1.23. A level
	// above every record's disables the handler just as cheaply.
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// --- HTTP instrumentation -------------------------------------------

// statusWriter captures the response status for metrics while keeping
// http.Flusher visible — the NDJSON result stream flushes mid-body.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel folds a request into a bounded route label for metrics —
// path parameters collapse to their pattern so the cardinality stays
// fixed no matter how many jobs exist.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/graphs":
		return "/v1/graphs"
	case p == "/v1/jobs":
		return "/v1/jobs"
	case strings.HasSuffix(p, "/results") && strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}/results"
	case strings.HasSuffix(p, "/cancel") && strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}/cancel"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case p == "/healthz":
		return "/healthz"
	case p == "/metrics":
		return "/metrics"
	case strings.HasPrefix(p, "/debug/"):
		return "/debug"
	default:
		return "other"
	}
}

// instrument is the outermost HTTP middleware: it resolves the
// request's trace id (honoring an incoming X-MBE-Trace, minting one
// otherwise), echoes it on the response before any handler writes —
// so 429 sheds and streamed NDJSON bodies carry it too — and records
// per-route latency and status counts.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := sanitizeTrace(r.Header.Get(TraceHeader))
		if tid == "" {
			tid = NewTraceID()
		}
		w.Header().Set(TraceHeader, tid)
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, tid))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		route := routeLabel(r)
		s.met.httpRequests.With(route, fmt.Sprint(sw.code)).Inc()
		s.met.httpLatency.With(route).ObserveDuration(time.Since(start))
	})
}
