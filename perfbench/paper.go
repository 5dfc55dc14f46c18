package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/fleet"
)

// The paper figure suite at the length figures_1h.txt was made with.
const (
	paperSimTime    = time.Hour
	paperGoldenSeed = 1
	paperGoldenFile = "figures_1h.txt"
	spanCap         = 20_000 // retained spans per traced run
)

// suiteJobs enumerates the 99 distinct runs of the paper figure suite
// for a root seed, deduplicated exactly as the fleet does it.
func suiteJobs(seed int64, simTime time.Duration) (experiment.Config, []fleet.Job, error) {
	base := experiment.DefaultConfig(experiment.StrategyRPCCSC, seed)
	base.SimTime = simTime
	var jobs []fleet.Job
	for _, spec := range experiment.AllFigureSpecs() {
		sweep, err := experiment.SweepJobs(spec, base, 1)
		if err != nil {
			return base, nil, err
		}
		for _, j := range sweep {
			jobs = append(jobs, fleet.Job{Key: j.Key, Config: j.Config})
		}
	}
	return base, jobs, nil
}

// renderSuite renders every paper figure as cmd/figures prints it.
func renderSuite(base experiment.Config, rep fleet.Report) (string, error) {
	var b strings.Builder
	for _, spec := range experiment.AllFigureSpecs() {
		fig, err := experiment.AssembleFigure(spec, base, 1, rep.Result)
		if err != nil {
			return "", err
		}
		b.WriteString(experiment.RenderTable(fig, spec.Metric))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// workers is the fleet width: one per CPU.
func workers() int { return runtime.NumCPU() }

func runPaperSuite(o opts) (*outcome, error) {
	if o.trace {
		return tracePaperSuite(o)
	}
	out := &outcome{}
	base, jobs, err := suiteJobs(o.seed, paperSimTime)
	if err != nil {
		return nil, err
	}

	// Set-up: assemble every suite scenario and stop before its first
	// simulated instant passes, through the same entry point.
	var setups []float64
	for r := 0; r < 5; r++ {
		s, err := timeIt(func() error {
			for _, j := range jobs {
				cfg := j.Config
				cfg.SimTime = time.Nanosecond
				if _, err := experiment.Run(cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out.set("setup_s", "s", median(setups))

	// Measured phase: whole passes of the suite through the fleet until
	// the budget is spent; another pass starts only if most of it fits.
	// Throughput is simulated node-seconds per CPU-second the process
	// spent on the pass, which other tenants of a shared host disturb far
	// less than wall time.
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var rates []float64
	var digest, text string
	var answered, issued uint64
	var lastRep fleet.Report
	for pass := 0; ; pass++ {
		cpu := cpuSeconds()
		rep, err := fleet.Run(context.Background(), jobs, fleet.Options{Parallel: workers()})
		if err != nil {
			return nil, err
		}
		cpu = cpuSeconds() - cpu
		out.rep.Attempted += int64(rep.Executed)
		out.rep.Failed += int64(rep.Failed)
		var nodeSec float64
		for _, rec := range rep.Records {
			if rec.Status != fleet.StatusOK || rec.Result == nil {
				out.fail("run %s: %s %s", rec.Key, rec.Status, rec.Error)
				continue
			}
			r := rec.Result
			nodeSec += float64(r.Config.NPeers) * r.Config.SimTime.Seconds()
			if r.TornAnswers != 0 || r.FutureAnswers != 0 {
				out.fail("run %s: torn=%d future=%d", rec.Key, r.TornAnswers, r.FutureAnswers)
			}
		}
		rates = append(rates, nodeSec/cpu)
		lastRep = rep
		t, err := renderSuite(base, rep)
		if err != nil {
			return nil, err
		}
		d := suiteDigest(t, rep)
		if pass == 0 {
			text, digest = t, d
			for _, rec := range rep.Records {
				if rec.Result != nil {
					answered += rec.Result.Answered
					issued += rec.Result.Issued
				}
			}
		} else if d != digest {
			out.fail("pass %d digest %s differs from pass 0 digest %s", pass, d, digest)
		}
		elapsed := time.Since(start)
		per := elapsed / time.Duration(pass+1)
		if budget-elapsed < per*9/10 {
			break
		}
	}

	out.rssMB = peakRSSMB()

	// Same-process reproducibility, outside the measured phase: one run
	// per paper strategy, the seed choosing which of its sweep points,
	// re-run alone through experiment.Run must reproduce its fleet record.
	rechecked, err := recheckSerial(out, o.seed, jobs, lastRep)
	if err != nil {
		return nil, err
	}

	if o.seed == paperGoldenSeed {
		golden, err := os.ReadFile(filepath.Join(o.root, paperGoldenFile))
		if err != nil {
			out.fail("read %s: %v", paperGoldenFile, err)
		} else if string(golden) != text {
			out.fail("suite output differs from %s", paperGoldenFile)
		}
	}
	printDetail(map[string]any{"digest": digest, "passes": len(rates), "serial_rechecked": rechecked,
		"golden_checked": o.seed == paperGoldenSeed,
		"queries_issued": issued, "queries_answered": answered})
	out.set("node_s_per_cpu_s", "node_s/cpu_s", median(rates))
	return out, nil
}

// suiteDigest fingerprints a pass's simulated results: the rendered
// figures plus every run's deterministic counters, so two commits can
// be compared for identical behaviour at any seed.
func suiteDigest(text string, rep fleet.Report) string {
	h := sha256.New()
	h.Write([]byte(text))
	for _, rec := range rep.Records {
		if r := rec.Result; r != nil {
			fmt.Fprintf(h, "%s %s\n", rec.Key, runCounters(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runCounters is one run's deterministic counters.
func runCounters(r *experiment.Result) string {
	return fmt.Sprintf("%d %d %d %d %d %d %d", r.TotalTx, r.TotalBytes,
		r.Issued, r.Answered, r.Failed, r.Violations, r.MeanLatency)
}

// recheckSerial re-runs one job per paper strategy alone through
// experiment.Run and fails the run if any differs from its record in
// rep. The seed picks the job among that strategy's sweep points. It
// returns the keys it re-ran.
func recheckSerial(out *outcome, seed int64, jobs []fleet.Job, rep fleet.Report) ([]string, error) {
	byStrategy := make(map[experiment.StrategyKind][]fleet.Job)
	for _, j := range jobs {
		byStrategy[j.Config.Strategy] = append(byStrategy[j.Config.Strategy], j)
	}
	records := make(map[string]*experiment.Result, len(rep.Records))
	for _, rec := range rep.Records {
		records[rec.Key] = rec.Result
	}
	rng := rand.New(rand.NewSource(seed))
	var keys []string
	for _, s := range experiment.AllPaperStrategies() {
		js := byStrategy[s]
		if len(js) == 0 {
			continue
		}
		j := js[rng.Intn(len(js))]
		r, err := experiment.Run(j.Config)
		if err != nil {
			return nil, err
		}
		keys = append(keys, j.Key)
		if want := records[j.Key]; want == nil {
			out.fail("run %s: no fleet record to re-check", j.Key)
		} else if got, w := runCounters(&r), runCounters(want); got != w {
			out.fail("run %s: alone %s, in the fleet %s", j.Key, got, w)
		}
	}
	return keys, nil
}

// printDetail writes one diagnostic JSON line to stdout.
func printDetail(fields map[string]any) {
	fields["detail"] = true
	line, _ := json.Marshal(fields)
	fmt.Println(string(line))
}

// tracePaperSuite is the traced run: one Table 1 configuration per
// paper strategy through the decorated stack, each twinned with an
// untraced experiment.Run of the same config, plus a shortened fleet
// pass for the orchestrator's own utilization figure.
func tracePaperSuite(o opts) (*outcome, error) {
	out := &outcome{}
	all := newTracer(0)
	var agg layerTotals
	var spans [][]span
	for _, s := range experiment.AllPaperStrategies() {
		cfg := experiment.DefaultConfig(s, o.seed)
		cfg.SimTime = paperSimTime
		t := newTracer(spanCap)
		if err := agg.add(out, cfg, t); err != nil {
			return nil, err
		}
		all.merge(t)
		spans = append(spans, t.spans)
	}
	agg.report(out, all)

	_, jobs, err := suiteJobs(o.seed, 10*time.Minute)
	if err != nil {
		return nil, err
	}
	rep, err := fleet.Run(context.Background(), jobs, fleet.Options{Parallel: workers()})
	if err != nil {
		return nil, err
	}
	out.rep.Attempted += int64(rep.Executed)
	out.rep.Failed += int64(rep.Failed)
	out.set("fleet.utilization", "ratio", rep.Bench().Utilization)
	writeSpanDump(o, out, spans...)
	return out, nil
}
