// Fixture for the telemetrybatch analyzer: per-iteration shared-counter
// updates in hot-package loops bust the 2% telemetry budget. Checked under
// the synthetic import path rahtm/internal/routing.
package fixture

import "rahtm/internal/telemetry"

var ctr = telemetry.Default.Counter("fixture.events")

// bad pays a shared-counter atomic every iteration.
func bad(items []int) {
	for range items {
		ctr.Inc() // want `telemetrybatch: telemetry\.Counter\.Inc inside a hot loop`
	}
}

// badLookup pays a registry lock AND a counter atomic every iteration.
func badLookup(items []int) {
	for range items {
		telemetry.Default.Counter("fixture.events").Add(1) // want `telemetrybatch: telemetry\.Registry\.Counter lookup inside a loop` `telemetrybatch: telemetry\.Counter\.Add inside a hot loop`
	}
}

// good batches into a local and flushes once after the loop.
func good(items []int) {
	n := int64(0)
	for range items {
		n++
	}
	ctr.Add(n)
}

// allowed shows a justified suppression: no diagnostic expected.
func allowed(items []int) {
	for range items {
		ctr.Inc() //rahtm:allow(telemetrybatch): fixture exercises suppression on this line
	}
}
