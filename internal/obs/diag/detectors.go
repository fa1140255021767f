package diag

// The standard detector set and the generic rule evaluators they are built
// from. Each detector keeps trailing state — a previous counter reading, a
// per-series crossing flag, an EMA baseline — so firing means "something
// changed", not "a cumulative total is nonzero". Detectors read instruments
// by exposition name through the registry's read-side lookups, so the set
// can watch any layer's signals without compile-time coupling to it.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
)

// CounterDeltaDetector fires when a counter family's total (summed across
// all its series) advances between checks. The first check
// primes the trailing reading without firing, so pre-existing totals at
// monitor attach time are not anomalies.
type CounterDeltaDetector struct {
	DetectorName string
	Registry     *obs.Registry
	Metric       string
	Severity     string

	primed bool
	last   float64
}

func (d *CounterDeltaDetector) Name() string { return d.DetectorName }

func (d *CounterDeltaDetector) Check(now time.Time) []Anomaly {
	var cur float64
	for _, sv := range d.Registry.SeriesValues(d.Metric) {
		cur += sv.Value
	}
	if !d.primed {
		d.primed, d.last = true, cur
		return nil
	}
	delta := cur - d.last
	d.last = cur
	if delta < 1 {
		return nil
	}
	return []Anomaly{{
		Time: now, Detector: d.DetectorName, Severity: d.Severity,
		Value:  delta,
		Detail: fmt.Sprintf("%s advanced by %.0f since last check", d.Metric, delta),
	}}
}

// GaugeBoundDetector fires when any series of a gauge family exceeds Bound,
// with hysteresis per label tuple: it fires on the crossing, then stays
// quiet until the series drops back to half the bound — a stuck
// condition yields one anomaly, not one per tick.
type GaugeBoundDetector struct {
	DetectorName string
	Registry     *obs.Registry
	Metric       string
	Bound        float64
	Severity     string

	active map[string]bool
}

func (d *GaugeBoundDetector) Name() string { return d.DetectorName }

func (d *GaugeBoundDetector) Check(now time.Time) []Anomaly {
	if d.active == nil {
		d.active = map[string]bool{}
	}
	var out []Anomaly
	for _, sv := range d.Registry.SeriesValues(d.Metric) {
		key := labelKey(sv.Labels)
		switch {
		case sv.Value > d.Bound && !d.active[key]:
			d.active[key] = true
			out = append(out, Anomaly{
				Time: now, Detector: d.DetectorName, Severity: d.Severity,
				Value: sv.Value, Baseline: d.Bound,
				Detail: fmt.Sprintf("%s%s = %g over bound %g", d.Metric, labelSuffix(sv.Labels), sv.Value, d.Bound),
			})
		case sv.Value <= d.Bound/2 && d.active[key]:
			delete(d.active, key)
		}
	}
	return out
}

// Rule constants for the stock detectors.
const (
	// latencySpikeFactor is how many times the trailing baseline a window
	// p95 must reach to count as a spike.
	latencySpikeFactor = 3
	// latencyMinSamples is the fewest window samples a p95 is judged on.
	latencyMinSamples = 16
	// defaultLatencyFloor is the spike floor when the server sets no
	// latency target.
	defaultLatencyFloor = 10 * time.Millisecond
	// burnBound is the SLO burn-rate bound in milli-units: the error budget
	// burning at twice its sustainable rate.
	burnBound = 2000
	// pinAgeBound flags snapshot pins held longer than this.
	pinAgeBound = time.Minute
	// goroutineSpikeFactor and goroutineMinAbs: a goroutine count over both
	// the factor times its trailing baseline and the absolute floor is a
	// leak or a stampede, not normal serving concurrency.
	goroutineSpikeFactor = 3
	goroutineMinAbs      = 200
)

// LatencySpikeDetector reads a window of recent request latencies (in
// nanoseconds; the serving layer's own request window) and fires when its
// p95 exceeds latencySpikeFactor times the trailing baseline — an EMA of
// previous healthy p95 readings — and the absolute Floor. The baseline only
// absorbs non-anomalous readings, so a spike cannot normalize itself into
// the baseline while it is being reported.
type LatencySpikeDetector struct {
	DetectorName string
	Window       *obs.Window
	Floor        time.Duration // default 10ms

	baseline float64 // EMA of healthy window p95s, seconds
}

func (d *LatencySpikeDetector) Name() string { return d.DetectorName }

func (d *LatencySpikeDetector) Check(now time.Time) []Anomaly {
	floor := d.Floor
	if floor <= 0 {
		floor = defaultLatencyFloor
	}
	v, n := d.Window.Percentile(95)
	if n < latencyMinSamples {
		return nil
	}
	p95 := time.Duration(v).Seconds()
	if d.baseline == 0 {
		d.baseline = p95
		return nil
	}
	if p95 > floor.Seconds() && p95 > latencySpikeFactor*d.baseline {
		return []Anomaly{{
			Time: now, Detector: d.DetectorName, Severity: SeverityCritical,
			Value: p95, Baseline: d.baseline,
			Detail: fmt.Sprintf("window p95 %.1fms is %.1fx the trailing baseline %.1fms",
				p95*1e3, p95/d.baseline, d.baseline*1e3),
		}}
	}
	// Healthy reading: fold it into the trailing baseline.
	d.baseline = 0.8*d.baseline + 0.2*p95
	return nil
}

// GoroutineSpikeDetector fires when the process goroutine count exceeds
// goroutineSpikeFactor times its trailing EMA baseline and goroutineMinAbs.
// Count substitutes the reading (tests); nil reads runtime.NumGoroutine.
type GoroutineSpikeDetector struct {
	DetectorName string
	Count        func() float64

	baseline float64
}

func (d *GoroutineSpikeDetector) Name() string { return d.DetectorName }

func (d *GoroutineSpikeDetector) Check(now time.Time) []Anomaly {
	count := d.Count
	if count == nil {
		count = func() float64 { return float64(runtime.NumGoroutine()) }
	}
	cur := count()
	if d.baseline == 0 {
		d.baseline = cur
		return nil
	}
	if cur > goroutineMinAbs && cur > goroutineSpikeFactor*d.baseline {
		return []Anomaly{{
			Time: now, Detector: d.DetectorName, Severity: SeverityCritical,
			Value: cur, Baseline: d.baseline,
			Detail: fmt.Sprintf("%.0f goroutines, %.1fx the trailing baseline %.0f", cur, cur/d.baseline, d.baseline),
		}}
	}
	d.baseline = 0.8*d.baseline + 0.2*cur
	return nil
}

// StandardDetectors builds the engine's stock detector set over reg
// (normally obs.Default, where every layer registers its instruments).
// latency is the serving layer's request-latency window (nanoseconds) and
// floor the latency-spike floor, normally the server's p95 target (0 keeps
// the 10ms default):
//
//	latency-spike        window p95 vs trailing baseline
//	slo-burn             per-tenant burn rate over bound, with hysteresis
//	breaker-trip         any circuit-breaker trip since last check
//	wal-fsync-stall      any WAL fsync the engine counted as a stall
//	snapshot-pin-age     oldest MVCC pin older than bound
//	event-drops          wide events dropped at the full bus buffer
//	goroutine-spike      goroutine count vs trailing baseline
func StandardDetectors(reg *obs.Registry, latency *obs.Window, floor time.Duration) []Detector {
	return []Detector{
		&LatencySpikeDetector{DetectorName: "latency-spike", Window: latency, Floor: floor},
		&GaugeBoundDetector{DetectorName: "slo-burn", Registry: reg,
			Metric: "xsltd_slo_burn_rate_milli", Bound: burnBound, Severity: SeverityCritical},
		&CounterDeltaDetector{DetectorName: "breaker-trip", Registry: reg,
			Metric: "xsltdb_breaker_trips_total", Severity: SeverityCritical},
		&CounterDeltaDetector{DetectorName: "wal-fsync-stall", Registry: reg,
			Metric: "xsltdb_wal_slow_fsyncs_total", Severity: SeverityCritical},
		&GaugeBoundDetector{DetectorName: "snapshot-pin-age", Registry: reg,
			Metric: "xsltdb_snapshot_pin_oldest_age_seconds", Bound: pinAgeBound.Seconds(), Severity: SeverityWarn},
		&CounterDeltaDetector{DetectorName: "event-drops", Registry: reg,
			Metric: "xsltd_events_dropped_total", Severity: SeverityWarn},
		&GoroutineSpikeDetector{DetectorName: "goroutine-spike"},
	}
}

func labelKey(labels []string) string {
	key := ""
	for _, l := range labels {
		key += l + "\x00"
	}
	return key
}

func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return fmt.Sprintf("%q", labels)
}
