// Package rules holds the shipped deductive rule files. The provenance
// views are embedded so the experiments consult the file on disk, the one
// copy of their text.
package rules

import _ "embed"

// Provenance is provenance.lbq: the pure-Datalog lineage views (derived/2,
// downstream/2, impacted/2), tabled.
//
//go:embed provenance.lbq
var Provenance string
