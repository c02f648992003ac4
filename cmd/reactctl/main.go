// Command reactctl is the client CLI for a reactd region server.
//
// Usage:
//
//	reactctl -addr localhost:7341 stats
//	reactctl -addr localhost:7341 submit -id t1 -deadline 90s -category traffic -desc "Is road A congested?"
//	reactctl -addr localhost:7341 task -id t1
//	reactctl -addr localhost:7341 work -id alice -min 1s -max 5s -quality 0.9
//	reactctl -addr localhost:7341 watch
//	reactctl -addr localhost:7341 tail -id t1
//	reactctl top -obs localhost:9090
//
// "work" emulates a crowd worker with the §V.C behaviour model: it
// registers, receives assignments, works for a random time inside its band
// (occasionally delaying), and submits an answer. "watch" streams every
// task result and grades it with positive feedback when it met the
// deadline. "tail" streams the engine's lifecycle event spine — one row
// per submit/assign/revoke/complete/expire/forget transition; with -id it
// follows a single task and exits at its terminal event. "top" scrapes a
// reactd observability plane (-http) and renders the /statusz snapshot; it
// talks HTTP, not the wire protocol.
//
// Exit status: 0 on success, 1 when the server reported an error or a
// streaming connection was lost, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	"react/internal/crowd"
	"react/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7341", "region server address")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	// top speaks HTTP to the observability plane, not the wire protocol;
	// handle it before dialing so it works against a reactd whose protocol
	// port is busy or firewalled.
	if cmd == "top" {
		if err := runTop(args); err != nil {
			fatal("reactctl: top", "err", err)
		}
		return
	}

	client, err := wire.Dial(*addr)
	if err != nil {
		fatal("reactctl: dial", "addr", *addr, "err", err)
	}
	defer client.Close()

	switch cmd {
	case "stats":
		err = runStats(client)
	case "regions":
		err = runRegions(client)
	case "submit":
		err = runSubmit(client, args)
	case "task":
		err = runTask(client, args)
	case "work":
		err = runWork(client, args)
	case "watch":
		err = runWatch(client)
	case "tail":
		err = runTail(client, args)
	default:
		usage()
	}
	if err != nil {
		client.Close()
		fatal("reactctl: "+cmd, "err", err)
	}
}

// fatal logs msg with its attributes and exits 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: reactctl [-addr host:port] {stats|regions|submit|task|work|watch|tail|top} [flags]")
	os.Exit(2)
}

func runStats(c *wire.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("received    %d\nassigned    %d\ncompleted   %d\non-time     %d\nexpired     %d\nreassigned  %d\nbatches     %d\nworkers     %d (known %d)\n",
		st.Received, st.Assigned, st.Completed, st.OnTime, st.Expired,
		st.Reassigned, st.Batches, st.WorkersOnline, st.WorkersKnown)
	return nil
}

func runRegions(c *wire.Client) error {
	regions, err := c.Regions()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-9s %-9s %-9s %-8s %s\n",
		"region", "received", "ontime", "expired", "workers", "reassigned")
	for _, r := range regions {
		fmt.Printf("%-10s %-9d %-9d %-9d %-8d %d\n",
			r.Region, r.Stats.Received, r.Stats.OnTime, r.Stats.Expired,
			r.Stats.WorkersOnline, r.Stats.Reassigned)
	}
	return nil
}

func runSubmit(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	id := fs.String("id", "", "task id (required)")
	deadline := fs.Duration("deadline", 90*time.Second, "relative deadline")
	category := fs.String("category", "traffic", "task category")
	desc := fs.String("desc", "", "task description")
	lat := fs.Float64("lat", 37.98, "task latitude")
	lon := fs.Float64("lon", 23.73, "task longitude")
	reward := fs.Float64("reward", 0.05, "reward in dollars")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("submit: -id is required")
	}
	err := c.Submit(wire.TaskPayload{
		ID: *id, Lat: *lat, Lon: *lon,
		DeadlineMS: deadline.Milliseconds(),
		Reward:     *reward, Category: *category, Description: *desc,
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (deadline %v)\n", *id, *deadline)
	return nil
}

func runTask(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("task", flag.ExitOnError)
	id := fs.String("id", "", "task id (required)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("task: -id is required")
	}
	st, err := c.TaskStatus(*id)
	if err != nil {
		return err
	}
	fmt.Printf("task     %s\nstate    %s\n", st.TaskID, st.State)
	if st.Worker != "" {
		fmt.Printf("worker   %s\n", st.Worker)
	}
	if st.State == "completed" {
		fmt.Printf("on-time  %v\n", st.MetDeadline)
	}
	return nil
}

func runWork(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	id := fs.String("id", "", "worker id (required)")
	lat := fs.Float64("lat", 37.98, "worker latitude")
	lon := fs.Float64("lon", 23.73, "worker longitude")
	minExec := fs.Duration("min", time.Second, "fastest completion")
	maxExec := fs.Duration("max", 5*time.Second, "slowest base completion")
	delayP := fs.Float64("delay-prob", 0, "probability of delaying a task")
	maxDelay := fs.Duration("max-delay", 30*time.Second, "worst delayed completion")
	//lint:ignore clocktaint interactive default: a fresh seed per run is the point; pass -seed to reproduce
	seed := fs.Int64("seed", time.Now().UnixNano(), "behaviour seed")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("work: -id is required")
	}
	b := crowd.Behavior{
		MinExec: *minExec, MaxExec: *maxExec,
		DelayProb: *delayP, MaxDelay: *maxDelay, Quality: 1,
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("work: %v", err)
	}
	if err := c.Register(*id, *lat, *lon); err != nil {
		return err
	}
	slog.Info("worker online; waiting for assignments", "worker", *id)
	rng := rand.New(rand.NewSource(*seed))
	for a := range c.Assignments() {
		exec := b.ExecTime(rng)
		slog.Info("assigned", "task", a.TaskID, "category", a.Category,
			"left", time.Duration(a.DeadlineMS)*time.Millisecond, "working", exec)
		time.Sleep(exec)
		answer := fmt.Sprintf("answer to %q from %s", a.Description, *id)
		if err := c.Complete(a.TaskID, *id, answer); err != nil {
			slog.Warn("complete refused (likely reassigned)", "task", a.TaskID, "err", err)
			continue
		}
		slog.Info("completed", "task", a.TaskID)
	}
	// The assignment stream only closes when the connection dies; a worker
	// that stops serving by accident must not report success.
	return fmt.Errorf("work: connection to server lost")
}

// runTail streams the engine's lifecycle event spine. With -id it follows
// one task's timeline and exits 0 at its terminal event (complete, expire,
// or forget); without it the stream runs until the connection drops.
func runTail(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	id := fs.String("id", "", "task id (empty streams every task)")
	fs.Parse(args)
	if err := c.WatchEvents(*id); err != nil {
		return err
	}
	if *id != "" {
		slog.Info("tailing task (exits at its terminal event)", "task", *id)
	} else {
		slog.Info("tailing all lifecycle events (ctrl-c to stop)")
	}
	fmt.Printf("%-8s %-21s %-9s %-16s %-12s %s\n",
		"seq", "at", "kind", "task", "worker", "detail")
	for ev := range c.Events() {
		detail := ev.Cause
		switch {
		case ev.Probability > 0:
			detail = fmt.Sprintf("%s p=%.3f", ev.Cause, ev.Probability)
		case ev.Kind == "complete":
			if ev.MetDeadline {
				detail = "on-time"
			} else {
				detail = "late"
			}
			if ev.Attempts > 1 {
				detail += fmt.Sprintf(" attempts=%d", ev.Attempts)
			}
		}
		fmt.Printf("%-8d %-21s %-9s %-16s %-12s %s\n",
			ev.Seq, time.UnixMilli(ev.AtUnixMS).Format("15:04:05.000"),
			ev.Kind, ev.TaskID, ev.Worker, detail)
		if *id != "" && ev.Terminal() {
			return nil
		}
	}
	return fmt.Errorf("tail: connection to server lost")
}

func runWatch(c *wire.Client) error {
	if err := c.Watch(); err != nil {
		return err
	}
	slog.Info("watching results (ctrl-c to stop)")
	feedbackErrs := 0
	for r := range c.Results() {
		switch {
		case r.Expired:
			fmt.Printf("EXPIRED  %s\n", r.TaskID)
		case r.MetDeadline:
			fmt.Printf("ON-TIME  %s by %s: %s\n", r.TaskID, r.WorkerID, r.Answer)
			if err := c.Feedback(r.TaskID, true); err != nil {
				slog.Warn("feedback refused", "task", r.TaskID, "err", err)
				feedbackErrs++
			}
		default:
			fmt.Printf("LATE     %s by %s: %s\n", r.TaskID, r.WorkerID, r.Answer)
			if err := c.Feedback(r.TaskID, false); err != nil {
				slog.Warn("feedback refused", "task", r.TaskID, "err", err)
				feedbackErrs++
			}
		}
	}
	if feedbackErrs > 0 {
		return fmt.Errorf("watch: %d feedback(s) rejected before the stream ended", feedbackErrs)
	}
	return fmt.Errorf("watch: connection to server lost")
}
