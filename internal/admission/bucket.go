package admission

import (
	"sort"
	"time"
)

// maxBuckets bounds the per-requester map: past it, fully-refilled
// buckets are evicted (a full bucket is indistinguishable from a fresh
// one, so dropping it loses nothing). Protects the controller from
// requester-id churn slowly pinning memory.
const maxBuckets = 4096

// bucket is one requester's token bucket. Refill is lazy: tokens accrue
// as elapsed-time × rate on each access, capped at the burst size, so no
// timer ever runs.
type bucket struct {
	fill float64   // tokens available
	last time.Time // instant of the previous refill
}

// takeToken consumes one token from requester's bucket, returning 0 on
// success or the wait until the next token accrues — the retry-after
// hint a rate rejection carries.
func (c *Controller) takeToken(requester string, now time.Time) time.Duration {
	c.bktMu.Lock()
	defer c.bktMu.Unlock()
	b, ok := c.buckets[requester]
	if !ok {
		if len(c.buckets) >= maxBuckets {
			c.evictFullLocked(now)
		}
		b = &bucket{fill: c.burst, last: now}
		c.buckets[requester] = b
	}
	b.refill(now, c.cfg.RequesterRate, c.burst)
	if b.fill >= 1 {
		b.fill--
		return 0
	}
	return time.Duration((1 - b.fill) / c.cfg.RequesterRate * float64(time.Second))
}

// refill accrues tokens for the time since the last access.
func (b *bucket) refill(now time.Time, rate, burst float64) {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.fill += elapsed * rate
		if b.fill > burst {
			b.fill = burst
		}
	}
	b.last = now
}

// evictFullLocked drops every bucket already back at full burst. Caller
// holds bktMu.
func (c *Controller) evictFullLocked(now time.Time) {
	for id, b := range c.buckets {
		b.refill(now, c.cfg.RequesterRate, c.burst)
		if b.fill >= c.burst {
			delete(c.buckets, id)
		}
	}
}

// bucketSnapshot refreshes every bucket to now and returns them sorted
// by requester id, for /statusz and reactctl top.
func (c *Controller) bucketSnapshot(now time.Time) []RequesterBucket {
	c.bktMu.Lock()
	defer c.bktMu.Unlock()
	if len(c.buckets) == 0 {
		return nil
	}
	out := make([]RequesterBucket, 0, len(c.buckets))
	for id, b := range c.buckets {
		b.refill(now, c.cfg.RequesterRate, c.burst)
		out = append(out, RequesterBucket{Requester: id, Fill: b.fill, Burst: c.burst})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Requester < out[j].Requester })
	return out
}
