package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"react/internal/powerlaw"
	"react/internal/region"
)

// Snapshotting lets a deployment persist the Profiling Component across
// restarts. Worker histories are the system's learned state: without them
// every worker reverts to the trainee rule and the probabilistic scheduler
// is blind until z tasks per worker have been re-observed. The format is
// line-oriented JSON, one worker per line, so snapshots stream and diff
// well.

// workerSnapshot is the persisted form of one Profile. Transient state
// (availability, the currently held task) is deliberately excluded: after a
// restart no assignment survives, and a reconnecting worker re-announces
// availability.
type workerSnapshot struct {
	ID         string            `json:"id"`
	Lat        float64           `json:"lat"`
	Lon        float64           `json:"lon"`
	Categories map[string][2]int `json:"categories,omitempty"` // category → [positive, finished]
	FitN       int               `json:"fit_n"`
	FitSumLog  float64           `json:"fit_sum_log"`
	FitMin     float64           `json:"fit_min"`
}

// WriteSnapshot streams every worker's persistent state to w, sorted by
// worker ID.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, p := range r.All() {
		snap := p.snapshot()
		if err := enc.Encode(snap); err != nil {
			return fmt.Errorf("profile: snapshot %q: %w", p.ID(), err)
		}
	}
	return nil
}

func (p *Profile) snapshot() workerSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := workerSnapshot{
		ID:  p.id,
		Lat: p.location.Lat,
		Lon: p.location.Lon,
	}
	s.FitN, s.FitSumLog, s.FitMin = p.fitter.State()
	if len(p.categories) > 0 {
		s.Categories = make(map[string][2]int, len(p.categories))
		for cat, cs := range p.categories {
			s.Categories[cat] = [2]int{cs.positive, cs.finished}
		}
	}
	return s
}

// ReadSnapshot loads workers from a snapshot stream into the registry.
// Restored workers start unavailable (they have not reconnected yet).
// Workers already present are skipped with an error; decoding stops at the
// first malformed line.
func (r *Registry) ReadSnapshot(rd io.Reader) (restored int, err error) {
	dec := json.NewDecoder(rd)
	for {
		var s workerSnapshot
		if err := dec.Decode(&s); err == io.EOF {
			return restored, nil
		} else if err != nil {
			return restored, fmt.Errorf("profile: snapshot line %d: %w", restored+1, err)
		}
		p, err := r.restore(s)
		if err != nil {
			return restored, err
		}
		_ = p
		restored++
	}
}

func (r *Registry) restore(s workerSnapshot) (*Profile, error) {
	if s.ID == "" {
		return nil, fmt.Errorf("profile: snapshot entry missing id")
	}
	loc := region.Point{Lat: s.Lat, Lon: s.Lon}
	if !loc.Valid() {
		return nil, fmt.Errorf("profile: snapshot %q has invalid location %v", s.ID, loc)
	}
	fitter, err := powerlaw.RestoreFitter(s.FitN, s.FitSumLog, s.FitMin)
	if err != nil {
		return nil, fmt.Errorf("profile: snapshot %q: %w", s.ID, err)
	}
	p, err := r.Register(s.ID, loc)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setAvailable(false) // not reconnected yet
	p.fitter = *fitter
	for cat, pf := range s.Categories {
		positive, finished := pf[0], pf[1]
		if positive < 0 || finished < positive {
			return nil, fmt.Errorf("profile: snapshot %q category %q has impossible counts %d/%d",
				s.ID, cat, positive, finished)
		}
		if p.categories == nil {
			p.categories = make(map[string]*categoryStats)
		}
		p.categories[cat] = &categoryStats{positive: positive, finished: finished}
		p.positive += positive
		p.finished += finished
	}
	return p, nil
}
