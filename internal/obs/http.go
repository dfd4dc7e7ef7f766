package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// active is the Recorder the /debug endpoint and expvar currently expose.
// One run is active at a time (cmds and the bench harness publish each run
// for its duration); Publish/Unpublish are cheap atomic swaps.
var active atomic.Pointer[Recorder]

// Publish makes r the process's active run for /debug/progress and expvar.
func Publish(r *Recorder) {
	if r != nil {
		active.Store(r)
	}
}

// Unpublish retires r if it is still the active run (a newer Publish wins).
func Unpublish(r *Recorder) {
	if r != nil {
		active.CompareAndSwap(r, nil)
	}
}

// Active returns the currently published Recorder, or nil.
func Active() *Recorder { return active.Load() }

var expvarOnce sync.Once

// publishExpvar registers the live-progress expvar exactly once per
// process (expvar.Publish panics on duplicates).
func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("mbe.progress", expvar.Func(func() any {
			r := Active()
			if r == nil {
				return nil
			}
			return r.Snapshot()
		}))
	})
}

// WriteJSON answers an HTTP request with v as indented JSON: the one
// JSON responder of the debug mux, mbed and mbecoord. A failed write
// means the client went away, so its error is dropped.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Logger returns l, or a logger that discards every record when l is
// nil: the default of every Logger/Log option in the service layer.
func Logger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	// slog.DiscardHandler needs Go 1.24; go.mod declares 1.23. A level
	// above every record's disables the handler just as cheaply.
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// progressHandler serves the active run's Snapshot as JSON. 404 with a
// JSON body while no run is published, so pollers can retry cheaply.
func progressHandler(w http.ResponseWriter, _ *http.Request) {
	r := Active()
	if r == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"active":false}` + "\n"))
		return
	}
	WriteJSON(w, http.StatusOK, r.Snapshot())
}

// DebugMux returns the /debug handler tree:
//
//	/debug/progress   — live Snapshot of the published run (JSON)
//	/debug/vars       — expvar (includes mbe.progress)
//	/debug/pprof/...  — net/http/pprof (profile, heap, trace, ...)
//
// The mux is freshly built per call and the expvar side is Once-guarded,
// so tearing a debug server down (SIGTERM) and relaunching it never
// hits a duplicate-registration panic — the restart-idempotency
// contract TestDebugServerRestartIdempotent pins.
func DebugMux() *http.ServeMux {
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/progress", progressHandler)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ShutdownTimeout bounds how long a debug, mbed or mbecoord server drains
// in-flight requests on shutdown: long enough for a progress poll or a
// small pprof read to finish, short enough that exiting never hangs on
// an abandoned connection (a stuck `curl /debug/pprof/trace`, say).
const ShutdownTimeout = 3 * time.Second

// ServeDebug listens on addr and serves DebugMux in a background
// goroutine. It returns the bound address (useful with ":0") and a
// shutdown function. Serving errors after a successful bind are dropped:
// the debug endpoint must never take the enumeration down with it.
func ServeDebug(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { ShutdownServer(srv, ShutdownTimeout) }, nil
}

// ShutdownServer gracefully drains srv: the listener closes immediately
// (no new connections), in-flight requests get up to timeout to finish,
// and whatever is still open after that is force-closed so no listener
// or connection outlives the shutdown call. Shared by the cmd/mbe and
// cmd/mbebench -debug-addr endpoints, the mbed daemon and mbecoord.
func ShutdownServer(srv *http.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Drain deadline hit (or listener already gone): hard-close the
		// stragglers rather than leak them.
		_ = srv.Close()
	}
}
