package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"react/internal/journal"
	"react/internal/matching"
	"react/internal/wire"
)

// fsyncInterval is reactd's default group-commit window. It is real I/O
// and is not compressed.
const fsyncInterval = 25 * time.Millisecond

// stack is one server built exactly as `reactd -data-dir … -admission`
// builds its single region — journal.Open, then wire.ServeDurable on
// loopback TCP — plus the client connections the workload needs. It runs
// in this process rather than as the reactd binary because reactd has no
// batch-poll flag and the traced run needs the spine and observer handles;
// the path from socket to fsync is the same code.
type stack struct {
	dir   string
	store *journal.Store
	srv   *wire.Server

	workers []*wire.Client // one connection per worker: the protocol binds them 1:1
	submit  *wire.Client   // the requester connection that generates load
	watch   *wire.Client   // result pushes and the feedback they trigger
}

// quiet drops the journal's recovery chatter; failures still surface
// through Store.Err, which the checker reads.
var quiet = log.New(io.Discard, "", 0)

func openServer(dir string, wl workload, m matching.Matcher) (*journal.Store, *wire.Server, error) {
	store, err := journal.Open(journal.Options{Dir: dir, FsyncInterval: fsyncInterval, Logf: quiet.Printf})
	if err != nil {
		return nil, nil, fmt.Errorf("open journal: %w", err)
	}
	srv, _, err := wire.ServeDurable("127.0.0.1:0", serverOptions(wl, m), store)
	if err != nil {
		// ServeDurable closes the store itself once the core server exists;
		// closing twice is harmless.
		_ = store.Close()
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	return store, srv, nil
}

// setUp is what setup_s times: journal open, server listening, fleet
// dialled and registered, requester watching.
func setUp(dir string, wl workload, specs []workerSpec, m matching.Matcher) (*stack, error) {
	store, srv, err := openServer(dir, wl, m)
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, store: store, srv: srv}
	for _, spec := range specs {
		cl, err := wire.Dial(srv.Addr())
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial worker %s: %w", spec.ID, err)
		}
		st.workers = append(st.workers, cl)
		if err := cl.Register(spec.ID, spec.Lat, spec.Lon); err != nil {
			st.close()
			return nil, fmt.Errorf("register %s: %w", spec.ID, err)
		}
	}
	for _, slot := range []**wire.Client{&st.submit, &st.watch} {
		cl, err := wire.Dial(srv.Addr())
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial requester: %w", err)
		}
		*slot = cl
	}
	if err := st.watch.Watch(); err != nil {
		st.close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	return st, nil
}

// closeClients drops every client connection; the goroutines ranging over
// their push channels end.
func (st *stack) closeClients() {
	for _, cl := range st.workers {
		_ = cl.Close() // Close never fails (wire.Client.Close)
	}
	for _, cl := range []*wire.Client{st.submit, st.watch} {
		if cl != nil {
			_ = cl.Close()
		}
	}
}

// close tears the whole stack down. Closing the wire server stops the
// core server, which closes the journal last.
func (st *stack) close() {
	st.closeClients()
	_ = st.srv.Close() // listener close error: nothing to do with it on the way down
}

// scratchRoot is where run state lives: inside the checkout (the
// benchmark may write nowhere else), beside the build cache run.sh keeps.
const scratchRoot = ".bench_build"

// scratchDir makes a fresh directory under parent for one run's journals.
func scratchDir(parent, label string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-"+label+"-")
}

// measureSetup times setUp repeatedly on fresh journals — at least
// minSetups times, then until setupBudget is spent or maxSetups is
// reached — keeps the last stack for the run and tears the others down.
// One set-up is tens of milliseconds, a third of them fsyncs, and varies
// by ±40 %; setup_s is the median.
func measureSetup(root string, wl workload, specs []workerSpec, m matching.Matcher) (*stack, sample, error) {
	var times sample
	began := wall.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(root, fmt.Sprintf("journal-%d", i))
		start := wall.Now()
		st, err := setUp(dir, wl, specs, m)
		if err != nil {
			return nil, nil, err
		}
		now := wall.Now()
		times = append(times, now.Sub(start).Seconds())
		if n := len(times); n >= maxSetups || (n >= minSetups && now.Sub(began) > setupBudget) {
			return st, times, nil
		}
		st.close()
	}
}
