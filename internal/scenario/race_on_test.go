//go:build race

package scenario

// raceBuild reports a build under the race detector, whose
// instrumentation changes what the allocation budgets measure.
const raceBuild = true
