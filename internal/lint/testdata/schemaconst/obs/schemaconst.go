// Package schemaconstfix seeds inline-literal schema violations
// against the real metrics and trace packages.
package schemaconstfix

import (
	"chimera/internal/metrics"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// Package-level constants: the only sanctioned way to name schema.
const (
	metricGood       = "fixture/good_counter"
	metricGoodPrefix = "fixture/lat_us"
)

// badInline registers metrics under inline literal names.
func badInline(reg *metrics.Registry) {
	reg.Counter("fixture/bad_counter")                       // want `metric name "fixture/bad_counter" is an inline literal`
	reg.Histogram("fixture/bad_hist", "µs", []float64{1, 2}) // want `metric name "fixture/bad_hist" is an inline literal`
}

// badLiteralPrefix roots a dynamic name in a literal.
func badLiteralPrefix(reg *metrics.Registry, suffix string) {
	reg.Counter("fixture/bad_prefix/" + suffix) // want `metric name "fixture/bad_prefix/" is an inline literal`
}

// badKindLiteral spells a trace kind as a number.
func badKindLiteral(at units.Cycles) trace.Event {
	return trace.Event{At: at, Kind: 3} // want `trace event kind 3 is an inline literal`
}

// badKindConversion launders the number through a conversion.
func badKindConversion(at units.Cycles) trace.Event {
	return trace.Event{At: at, Kind: trace.Kind(5)} // want `trace event kind 5 is an inline literal`
}

// goodConst registers under named constants.
func goodConst(reg *metrics.Registry, suffix string) {
	reg.Counter(metricGood)
	reg.Histogram(metricGoodPrefix+"/"+suffix, "µs", []float64{1, 2})
}

// goodKind uses the named kind constants.
func goodKind(at units.Cycles) trace.Event {
	return trace.Event{At: at, Kind: trace.KernelLaunch}
}

// allowedInline carries a reviewed suppression.
func allowedInline(reg *metrics.Registry) {
	//chimera:allow schemaconst fixture exercises the suppression path
	reg.Counter("fixture/allowed_counter")
}
