package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"react/internal/obs"
)

// runTop scrapes a reactd observability plane and renders the /statusz
// snapshot as a terminal dashboard. -raw dumps the Prometheus /metrics
// exposition verbatim instead, for piping into other tools.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	obsAddr := fs.String("obs", "localhost:9090", "observability plane address (reactd -http)")
	workers := fs.Int("workers", 10, "worker rows to show per region (0 = all)")
	raw := fs.Bool("raw", false, "dump the raw /metrics exposition and exit")
	timeout := fs.Duration("timeout", 5*time.Second, "scrape timeout")
	fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	base := "http://" + *obsAddr

	if *raw {
		return dumpMetrics(client, base)
	}

	resp, err := client.Get(fmt.Sprintf("%s/statusz?workers=%d", base, *workers))
	if err != nil {
		return fmt.Errorf("top: scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("top: read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("top: %s returned %s: %s", base, resp.Status, body)
	}
	var st obs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("top: bad /statusz payload: %w", err)
	}
	render(st)
	return nil
}

func dumpMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("top: scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("top: %s returned %s: %s", base, resp.Status, body)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func render(st obs.Status) {
	fmt.Printf("reactd at %s, up %s\n", st.Now, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second))
	for _, r := range st.Regions {
		e := r.Engine
		fmt.Printf("\nregion %s: workers %d online / %d known, backlog %d (peak %d), retained %d\n",
			r.ID, r.WorkersOnline, r.WorkersKnown, r.TasksBacklog, r.TasksBacklogHighWater, r.TasksRetained)
		fmt.Printf("  received %d  assigned %d  completed %d  on-time %d  expired %d  reassigned %d\n",
			e.Received, e.Assigned, e.Completed, e.OnTime, e.Expired, e.Reassigned)
		fmt.Printf("  batches %d  matcher %.3fs total\n", e.Batches, e.MatcherTimeSeconds)

		if a := r.Admission; a != nil {
			model := "(cold)"
			if a.MedianExecSeconds > 0 {
				model = fmt.Sprintf("median %.2fs, capacity %.1f/s", a.MedianExecSeconds, a.CapacityPerSec)
			}
			fmt.Printf("  admission: floor %.2f  inflight %d/%d  fleet model %s (%d samples)\n",
				a.ProbFloor, a.Inflight, a.MaxInflight, model, a.FleetSamples)
			fmt.Printf("  admission: admitted %d  rejected %d prob / %d rate  shed %d\n",
				a.Admitted, a.RejectedProbability, a.RejectedRate, a.Shed)
			for _, b := range a.Buckets {
				fmt.Printf("  admission: bucket %-12s %.1f/%.1f tokens\n", b.Requester, b.Fill, b.Burst)
			}
		}

		if len(r.Workers) > 0 {
			fmt.Printf("  %-12s %-5s %-6s %-9s %-9s %-8s %s\n",
				"worker", "conn", "avail", "finished", "accuracy", "samples", "model")
			for _, w := range r.Workers {
				acc := "-"
				if w.Accuracy != nil {
					acc = fmt.Sprintf("%.2f", *w.Accuracy)
				}
				model := "(training)"
				if w.Model != nil {
					model = fmt.Sprintf("alpha=%.2f kmin=%.2f n=%d", w.Model.Alpha, w.Model.Kmin, w.Model.N)
				}
				fmt.Printf("  %-12s %-5v %-6v %-9d %-9s %-8d %s\n",
					w.ID, w.Connected, w.Available, w.Finished, acc, w.FitSamples, model)
			}
			if r.WorkersElided > 0 {
				fmt.Printf("  ... %d more workers (rerun with -workers 0)\n", r.WorkersElided)
			}
		}
	}
}
