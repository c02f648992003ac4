package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// A short configuration keeps the determinism test fast; the protection
// test below runs the (longer) defaults.
func shortBenchConfig() OverloadBenchConfig {
	return OverloadBenchConfig{Duration: 20e9} // 20 virtual seconds
}

func TestOverloadBenchDeterministic(t *testing.T) {
	a, err := RunOverloadBench(shortBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOverloadBench(shortBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same config, different results:\n%s\n%s", ja, jb)
	}
}

func TestOverloadBenchAdmissionProtectsGoodput(t *testing.T) {
	res, err := RunOverloadBench(OverloadBenchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: at 10x offered load with admission on, goodput
	// holds at >= 70% of the unloaded baseline.
	if res.GoodputRatioOn < 0.7 {
		t.Errorf("admission-on goodput ratio = %.3f, want >= 0.7", res.GoodputRatioOn)
	}
	// And in absolute terms it stays within 40% of what the default
	// configuration recorded (17.3 on-time tasks/s; docs/ADMISSION.md).
	// The run is virtual-time, so this is the same number on any machine.
	const recordedGoodputOn = 17.3
	if floor := 0.6 * recordedGoodputOn; res.OverloadOn.GoodputPerSec < floor {
		t.Errorf("admission-on goodput = %.2f tasks/s, want >= %.2f (0.6 x recorded %.1f)",
			res.OverloadOn.GoodputPerSec, floor, recordedGoodputOn)
	}
	// The collapse the plane exists to prevent: without admission the
	// offered-load fraction served on time craters, and the unassigned
	// pool balloons; with admission the pool stays bounded near the
	// in-flight ceiling.
	if res.OverloadOff.GoodputPerOffered > res.Baseline.GoodputPerOffered/2 {
		t.Errorf("admission-off goodput fraction %.3f did not collapse (baseline %.3f)",
			res.OverloadOff.GoodputPerOffered, res.Baseline.GoodputPerOffered)
	}
	if res.OverloadOn.UnassignedHighWater >= res.OverloadOff.UnassignedHighWater {
		t.Errorf("admission-on high-water %d not below admission-off %d",
			res.OverloadOn.UnassignedHighWater, res.OverloadOff.UnassignedHighWater)
	}
	if res.OverloadOn.UnassignedHighWater > 2*res.Workers {
		t.Errorf("admission-on high-water %d exceeds the 2x-fleet ceiling %d",
			res.OverloadOn.UnassignedHighWater, 2*res.Workers)
	}
	// Every protection mechanism should actually fire under overload:
	// typed rate rejections, probability-floor rejections, and sheds.
	on := res.OverloadOn
	if on.RejectedRate == 0 || on.RejectedProbability == 0 || on.Shed == 0 {
		t.Errorf("overload_on arm should exercise all gates: rate=%d prob=%d shed=%d",
			on.RejectedRate, on.RejectedProbability, on.Shed)
	}
	// Accounting must close: every offered task is submitted or rejected.
	if got := on.Submitted + int(on.RejectedRate) + int(on.RejectedProbability); got != on.Offered {
		t.Errorf("offered %d != submitted %d + rejected %d+%d",
			on.Offered, on.Submitted, on.RejectedRate, on.RejectedProbability)
	}
}

func TestExecTimeForDistribution(t *testing.T) {
	// The id-hash service-time draw must actually look like the power law
	// the admission model assumes — the earlier FNV-without-finalizer
	// version clustered in the body and starved the tail.
	const n = 20000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = execTimeFor(taskID(i)).Seconds()
	}
	sort.Float64s(samples)
	if samples[0] < overloadKmin {
		t.Fatalf("sample below kmin: %v", samples[0])
	}
	wantMedian := overloadKmin * math.Pow(0.5, -1/(overloadAlpha-1))
	gotMedian := samples[n/2]
	if math.Abs(gotMedian-wantMedian)/wantMedian > 0.05 {
		t.Errorf("median = %.3f, want ~%.3f", gotMedian, wantMedian)
	}
	// Tail check: Pr(X > 10*kmin) = 10^(1-alpha) = ~3.2% for alpha 2.5.
	tail := 0
	for _, s := range samples {
		if s > 10*overloadKmin {
			tail++
		}
	}
	want := math.Pow(10, 1-overloadAlpha)
	if got := float64(tail) / n; math.Abs(got-want)/want > 0.25 {
		t.Errorf("tail fraction above 10*kmin = %.4f, want ~%.4f", got, want)
	}
}

func taskID(i int) string {
	// Mirrors runOverloadArm's id format.
	return "t" + string([]byte{
		byte('0' + i/1000000%10), byte('0' + i/100000%10), byte('0' + i/10000%10),
		byte('0' + i/1000%10), byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10),
	})
}

// TestOverloadBenchMatchesGolden pins the default run byte for byte to the
// result recorded before the admission wiring moved into the engine: the
// proof that moving the wiring moved no decision.
func TestOverloadBenchMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_overloadbench.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOverloadBench(OverloadBenchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("overload bench diverged from testdata/golden_overloadbench.json:\n got %s\nwant %s", got, want)
	}
}
