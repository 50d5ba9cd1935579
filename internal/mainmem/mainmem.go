// Package mainmem is the DDR4 main-memory timing model that supplies
// load/store latency and bandwidth to the rest of MLIMP, in place of the
// paper's Ramulator ("Load and store bandwidth for the main memory
// communication is simulated using Ramulator integrated into our
// simulator", Section IV). It is stateless: a Config of organisation and
// timing parameters, and a closed-form row-streaming model for the bulk
// transfers the scheduler's load-time term uses. A bank-level
// row-buffer replay with per-channel data buses (mainmem_test.go) is
// the streaming model's test oracle.
package mainmem

import "mlimp/internal/event"

// Config holds the DDR4 organisation and timing parameters.
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int64
	LineBytes       int64 // transfer granule (one burst)

	TCK   event.Time // clock period (ps)
	TRCD  event.Time // activate-to-read
	TRP   event.Time // precharge
	TCAS  event.Time // read latency
	Burst event.Time // data burst duration for one line

	// RefreshOverhead derates streaming bandwidth for refresh and bus
	// turnaround (fraction of time lost).
	RefreshOverhead float64
}

// DDR4_2400 returns the evaluation configuration: DDR4-2400, 4 channels,
// 1 rank, 16 banks (Section V-A), 8 KB rows, 64 B lines.
func DDR4_2400() Config {
	tck := event.Time(833) // ps at 1200 MHz bus clock
	return Config{
		Channels:        4,
		BanksPerChannel: 16,
		RowBytes:        8192,
		LineBytes:       64,
		TCK:             tck,
		TRCD:            16 * tck, // ~13.3 ns
		TRP:             16 * tck,
		TCAS:            16 * tck,
		Burst:           4 * tck, // 8 beats DDR
		RefreshOverhead: 0.05,
	}
}

// RoundTrip returns the worst-case latency of a single line access —
// the row-conflict path, precharge + activate + CAS + burst. This is
// the fastest any cross-layer interaction through main memory can
// complete, so it bounds from below the lookahead an intra-node
// device-level sharding of the simulation (event/parsim) may use. The
// cluster fabric's network hop (cluster.DefaultHop) sits three orders
// of magnitude above it, so the fleet-level lookahead is safely
// conservative for any shard granularity down to single devices.
func (c *Config) RoundTrip() event.Time {
	return c.TRP + c.TRCD + c.TCAS + c.Burst
}

// PeakBandwidthGBs returns the aggregate pin bandwidth in GB/s.
func (c *Config) PeakBandwidthGBs() float64 {
	perChannel := float64(c.LineBytes) / c.Burst.Seconds() // B/s
	return float64(c.Channels) * perChannel / 1e9
}

// StreamTime returns the closed-form time to move bytes sequentially
// between main memory and an in-memory compute region: per-row activation
// costs amortised over full-row bursts, pipelined across all channels,
// derated by the refresh overhead. This is the t_ld building block of
// the scheduler's analytical model. A transfer is billed in whole row
// stripes (one row on every channel, 32 KiB for DDR4_2400), so anything
// smaller costs a full stripe.
func (c *Config) StreamTime(bytes int64) event.Time {
	if bytes <= 0 {
		return 0
	}
	linesPerRow := c.RowBytes / c.LineBytes
	perRow := event.Time(linesPerRow)*c.Burst + c.TRP + c.TRCD
	stripe := c.RowBytes * int64(c.Channels)
	rows := (bytes + stripe - 1) / stripe
	t := event.Time(rows)*perRow + c.TCAS // pipeline fill
	return event.Time(float64(t) * (1 + c.RefreshOverhead))
}

// EffectiveBandwidthGBs reports the streaming bandwidth implied by
// StreamTime for large transfers.
func (c *Config) EffectiveBandwidthGBs() float64 {
	const probe = 1 << 30
	return probe / c.StreamTime(probe).Seconds() / 1e9
}
