package core

import (
	"fmt"

	"scaledl/internal/quant"
)

// This file is the one method × knob support table. Every pair either runs
// with its invariants (TestSupportTable drives each cell) or is refused here,
// with one typed error, before a run touches any process state. No other
// file of the package refuses a method × knob pair.

// UnsupportedError reports a configuration knob the named method refuses.
// Every refusal of a method × knob pair is one of these (errors.As), built
// from the support table.
type UnsupportedError struct {
	Method string // registry name, "knl-cluster-easgd", or "" when no method supports the knob
	Knob   string // the table column, e.g. "partial-k+overlap"
	Reason string
}

func (e *UnsupportedError) Error() string {
	who := e.Method
	if who == anyMethod {
		who = "every method"
	}
	return fmt.Sprintf("core: %s refuses %s: %s", who, e.Knob, e.Reason)
}

// anyMethod is the table row of Config.Validate on its own: the knob
// combinations no method supports.
const anyMethod = ""

// The table's columns. Combination columns follow their components, and
// supported checks from the right, so the most specific refusal is the one
// reported.
const (
	knobLoss = iota
	knobBadLinks
	knobFailContinue
	knobPartialK
	knobPartialKOverlap
	knobCommCompression
	knobCommPartialK
	knobCommFailContinue
	knobFlatCluster
	numKnobs
)

// knobs names each column and tells whether a config turns it on.
var knobs = [numKnobs]struct {
	name string
	set  func(c *Config) bool
}{
	knobLoss:             {"loss", func(c *Config) bool { return c.Faults.semantic() }},
	knobBadLinks:         {"bad-links", func(c *Config) bool { return len(c.Faults.BadLinks) > 0 }},
	knobFailContinue:     {"fail-continue", func(c *Config) bool { return c.Faults.failContinue() }},
	knobPartialK:         {"partial-k", func(c *Config) bool { return c.Faults.PartialK > 0 }},
	knobPartialKOverlap:  {"partial-k+overlap", func(c *Config) bool { return c.Faults.PartialK > 0 && c.Overlap }},
	knobCommCompression:  {"comm-mode+compression", func(c *Config) bool { return c.CommMode != CommDense && c.Compression != quant.None }},
	knobCommPartialK:     {"comm-mode+partial-k", func(c *Config) bool { return c.CommMode != CommDense && c.Faults.PartialK > 0 }},
	knobCommFailContinue: {"comm-mode+fail-continue", func(c *Config) bool { return c.CommMode != CommDense && c.Faults.failContinue() }},
	knobFlatCluster:      {"flat-cluster", func(c *Config) bool { return c.Nodes == 0 }},
}

// The Reason column. yes marks a supported cell.
const (
	yes       = ""
	unguarded = "its parameter traffic bypasses the guarded message path, so it does not support message loss/corruption"
	hierLinks = "hierarchical node ids are not worker ranks, so it does not support per-link BadLinks; use the global rates"
	allP      = `its center update needs all P workers, so it does not support fail mode "continue"; use sync-sgd or hier-sync-sgd`
	noGather  = "it has no parameter-server style gather, so it does not support partial aggregation (PartialK); use sync-sgd"
	noStream  = "the partial-aggregation gather does not stream: PartialK is incompatible with Overlap"
	factorQ   = "the factor transport (CommMode sfb/hybrid) carries rank-tagged (dY, X) views, not the quantizable gradient: it is incompatible with gradient compression"
	factorK   = "the factor allgather (CommMode sfb/hybrid) has no partial form: it is incompatible with partial aggregation (PartialK)"
	factorP   = "the factor allgather (CommMode sfb/hybrid) has no shrinking-membership form: it is incompatible with fail-continue faults"
	needNodes = "it runs on a Nodes x GPUsPerNode cluster and does not support a flat config; set both >= 1"
)

// supportTable is the matrix: one row per method, one cell per knob column.
var supportTable = func() map[string][numKnobs]string {
	// The master/worker programs and the KNL cluster move parameters outside
	// comm's guarded path (SendModel / DelayModel, chip-local partition sums):
	// only timing faults are meaningful there.
	timingOnly := [numKnobs]string{unguarded, unguarded, allP, noGather, noGather, factorQ, factorK, factorP, yes}
	// Loss/corruption is fine — every parameter byte moves through the guarded
	// collectives — but the center update needs all P contributions.
	easgd := [numKnobs]string{yes, yes, allP, noGather, noGather, factorQ, factorK, factorP, yes}
	t := map[string][numKnobs]string{
		anyMethod:         {yes, yes, yes, yes, yes, factorQ, factorK, factorP, yes},
		"sync-sgd":        {yes, yes, yes, yes, noStream, factorQ, factorK, factorP, yes},
		"sync-easgd1":     easgd,
		"sync-easgd2":     easgd,
		"sync-easgd3":     easgd,
		"hier-sync-sgd":   {yes, hierLinks, yes, noGather, noGather, factorQ, factorK, factorP, needNodes},
		"hier-sync-easgd": {yes, hierLinks, allP, noGather, noGather, factorQ, factorK, factorP, needNodes},
	}
	for _, m := range []string{"original-easgd*", "original-easgd", "async-sgd", "async-msgd", "hogwild-sgd",
		"async-easgd", "async-measgd", "hogwild-easgd", "knl-cluster-easgd"} {
		t[m] = timingOnly
	}
	return t
}()

// supported consults the table: nil, or the *UnsupportedError of the most
// specific knob c sets that method refuses.
func supported(method string, c *Config) error {
	row, known := supportTable[method]
	if !known {
		panic(fmt.Sprintf("core: method %q has no support-table row", method))
	}
	for k := numKnobs - 1; k >= 0; k-- {
		if row[k] != yes && knobs[k].set(c) {
			return &UnsupportedError{Method: method, Knob: knobs[k].name, Reason: row[k]}
		}
	}
	return nil
}
