// Command enoki-chaos drives the deterministic chaos engine: seeded fault
// campaigns across every scheduler class, an always-on invariant oracle, and
// automatic minimization of failing seeds down to a replayable one-liner.
//
// Usage:
//
//	enoki-chaos [-runs N] [-seed S] [-class NAME] [-maxfailures N] [-norollback] [-verified] [-v]
//	enoki-chaos -replay SPEC [-norollback] [-verified] [-leakshed]
//
// A campaign round-robins seeded single-machine (`v1:`) fault schedules
// over the target classes (all of them by default) and judges every run
// with the invariant oracle. Each failure is shrunk to a minimal fault
// schedule and printed with the exact command that replays it:
//
//	enoki-chaos -replay v1:shinjuku:37467eec32c27644:2
//
// -replay accepts a spec from any of the four planes: `v1:` one machine,
// `f1:` fleet machine kills, `r1:` fleet rollouts, `t1:` traffic under
// overload control. -norollback and -verified shape `v1:` runs; -leakshed
// plants the `t1:` plane's seeded bug.
//
// Because the simulator is deterministic over virtual time and every fault
// trigger is a seeded draw, a call count, or a virtual timestamp, the spec
// string is the entire reproducer — no transcript, no flake.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"enoki/internal/chaos"
)

func main() {
	runs := flag.Int("runs", 100, "number of seeded campaign runs")
	seed := flag.Uint64("seed", 1, "campaign master seed")
	class := flag.String("class", "", "restrict to one scheduler class (default: all, round-robin)")
	replay := flag.String("replay", "", "replay one spec (v1:, f1:, r1: or t1:<class>:<seed>:<mask>) instead of a campaign")
	noRollback := flag.Bool("norollback", false, "disable transactional upgrade rollback (the v1: plane's seeded-bug configuration)")
	leakShed := flag.Bool("leakshed", false, "plant the shed-accounting leak (the t1: plane's seeded-bug configuration)")
	verified := flag.Bool("verified", false, "mount the verified-bytecode tier above each class under test (v1:)")
	maxFailures := flag.Int("maxfailures", 3, "stop the campaign after minimizing this many failures")
	verbose := flag.Bool("v", false, "print one line per campaign run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: enoki-chaos [-runs N] [-seed S] [-class NAME] [-maxfailures N] [-norollback] [-verified] [-v]\n"+
			"       enoki-chaos -replay SPEC [-norollback] [-verified] [-leakshed]\n\n"+
			"SPEC is v1:, f1:, r1: or t1:<class>:<seed hex>:<mask hex>\nclasses: %s\n\n",
			strings.Join(chaos.ClassNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	rc := chaos.RunConfig{NoRollback: *noRollback, VerifiedTier: *verified}

	if *replay != "" {
		res, err := chaos.Replay(*replay, rc, chaos.TrafficRunConfig{LeakShed: *leakShed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "enoki-chaos: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(strings.Join(res.Report, "\n"))
		if res.Failed() {
			os.Exit(1)
		}
		return
	}

	cfg := chaos.CampaignConfig[chaos.RunConfig]{
		Runs:        *runs,
		Seed:        *seed,
		MaxFailures: *maxFailures,
		Run:         rc,
	}
	if *class != "" {
		cfg.Classes = []string{*class}
	}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Println(line) }
	}
	res := chaos.Campaign(chaos.V1, cfg)
	fmt.Printf("campaign: %d runs, %d failures (seed %#x)\n", res.Runs, len(res.Failures), *seed)
	for _, f := range res.Failures {
		fmt.Printf("\nFAIL %s\n", f.Result.Schedule.Spec())
		fmt.Printf("  events:    %v\n", f.Result.Schedule.Enabled())
		fmt.Printf("  minimized: %v\n", f.Minimized.Enabled())
		for _, v := range f.MinResult.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		fmt.Printf("  reproduce: %s\n", f.Replay)
	}
	if !res.OK() {
		os.Exit(1)
	}
}
