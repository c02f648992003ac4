// Package core holds two names the benchmark module (benchmark/) still
// compiles against; nothing in module react imports it, and `make lint`
// fails if anything starts to. A region server is an *engine.Engine that
// internal/wire hosts. The package goes once benchmark/ is re-based onto
// engine.Config and engine.Stats (ROADMAP item 8).
package core

import "react/internal/engine"

// Options is the configuration wire.Serve and wire.ServeDurable take.
type Options = engine.Config

// Stats is one region's counters, as wire.Region.Stats reports them.
type Stats = engine.Stats
