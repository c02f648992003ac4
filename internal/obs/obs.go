// Package obs is REACT's read-only observability plane: a small stdlib-only
// HTTP server exposing Prometheus-format metrics (/metrics), a JSON status
// snapshot (/statusz), and the runtime profiler (/debug/pprof/*). It is
// strictly a window — handlers only read from the engine, never write — so
// attaching it cannot perturb scheduling decisions or the determinism gate.
//
// The plane listens on its own address (reactd's -http flag), separate from
// the wire protocol, so operational scraping never competes with worker
// traffic for the protocol listener.
package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"react/internal/clock"
	"react/internal/metrics"
)

// contentTypeMetrics is the Prometheus text exposition format version the
// /metrics handler emits.
const contentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// Options configures the plane.
type Options struct {
	// Clock supplies time for uptime and the /statusz timestamp. Required.
	Clock clock.Clock
	// Registry backs /metrics. Nil serves 503 on /metrics.
	Registry *metrics.Registry
	// Regions snapshots the engines /statusz reports on. Nil serves an
	// empty region list. Called per request; must be safe for concurrent
	// use and cheap (reactd lists the transport's running region servers).
	Regions func() []Source
	// Trace backs /trace.csv with the ring's retained timeline (reactd
	// taps it onto every region's event spine). Nil serves 503 on
	// /trace.csv.
	Trace *TraceRing
	// Logf receives serve-loop errors. Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the observability HTTP server. Create with NewServer, start
// with Start, stop with Shutdown.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	mu   sync.Mutex
	http *http.Server
	ln   net.Listener
	done chan struct{}
}

// NewServer builds the plane. It panics if opts.Clock is nil — the plane
// exists to report time-derived state and has no sane fallback that would
// not re-couple the package to the wall clock.
func NewServer(opts Options) *Server {
	if opts.Clock == nil {
		panic("obs: Options.Clock is required")
	}
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		start: opts.Clock.Now(),
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/trace.csv", s.handleTrace)
	// The plane runs its own mux, so net/http/pprof's DefaultServeMux
	// registrations never become reachable; wire the handlers explicitly.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the route table, primarily for in-process tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in the background until Shutdown. It
// returns once the listener is bound, so a caller that gets nil knows the
// port is open. Addr reports the bound address (useful with ":0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != nil {
		ln.Close()
		return errors.New("obs: already started")
	}
	s.ln = ln
	s.http = &http.Server{
		Handler: s.mux,
		// The plane serves trusted operators, but a stuck scraper must
		// not pin a connection open forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.done = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("obs: serve: %v", err)
		}
	}(s.http, s.done)
	return nil
}

// Addr reports the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server, waiting for in-flight requests
// until ctx expires. It is a no-op before Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv, done := s.http, s.done
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	<-done
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "react observability plane")
	fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
	fmt.Fprintln(w, "  /statusz       JSON engine/worker snapshot (?workers=N)")
	fmt.Fprintln(w, "  /trace.csv     recent task-lifecycle timeline (task,kind,at_unix_ms,worker)")
	fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Trace == nil {
		http.Error(w, "no trace ring configured", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	if err := s.opts.Trace.WriteCSV(w); err != nil {
		s.logf("obs: /trace.csv: %v", err) // headers already sent; log only
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no metrics registry configured", http.StatusServiceUnavailable)
		return
	}
	// Render to a buffer first so a slow client can never hold metric
	// sources' locks, and so an exposition error yields a clean 500
	// instead of a truncated body.
	var buf bytes.Buffer
	if err := s.opts.Registry.WriteText(&buf); err != nil {
		s.logf("obs: /metrics: %v", err)
		http.Error(w, "exposition failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentTypeMetrics)
	w.Write(buf.Bytes())
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	limit := DefaultWorkerLimit
	if q := r.URL.Query().Get("workers"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "workers: not an integer", http.StatusBadRequest)
			return
		}
		limit = n // 0 or negative means "all"
	}
	now := s.opts.Clock.Now()
	st := Status{
		Now:           now.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: now.Sub(s.start).Seconds(),
	}
	if s.opts.Regions != nil {
		for _, src := range s.opts.Regions() {
			if src.Engine == nil {
				continue
			}
			st.Regions = append(st.Regions, buildRegion(src, limit))
		}
	}
	if st.Regions == nil {
		st.Regions = []RegionStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		// Headers are gone; all we can do is log.
		s.logf("obs: /statusz: %v", err)
	}
}
