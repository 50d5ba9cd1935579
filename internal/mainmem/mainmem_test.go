package mainmem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mlimp/internal/event"
)

// The bank-level oracle for StreamTime: a sequentially simulated DDR4
// controller with an open-page policy, line-interleaved channels, per-bank
// row buffers and one data bus per channel. It runs only in tests; every
// binary bills main-memory traffic through the closed-form StreamTime.

// bank tracks one bank's open row and when it can take its next command.
type bank struct {
	openRow int64      // -1 = closed
	colAt   event.Time // earliest next column command to the open row
	doneAt  event.Time // last data out; the row may close after this
}

// Controller replays line accesses against the bank and bus state.
type Controller struct {
	cfg   Config
	banks [][]bank
	busAt []event.Time // per channel: the data bus is free from here
	// Stats.
	Hits, Misses, Conflicts int64
}

// NewController builds a controller with all rows closed.
func NewController(cfg Config) *Controller {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 {
		panic("mainmem: bad configuration")
	}
	c := &Controller{cfg: cfg, banks: make([][]bank, cfg.Channels),
		busAt: make([]event.Time, cfg.Channels)}
	for ch := range c.banks {
		c.banks[ch] = make([]bank, cfg.BanksPerChannel)
		for b := range c.banks[ch] {
			c.banks[ch][b].openRow = -1
		}
	}
	return c
}

// decode maps a physical address to (channel, bank, row) with line-level
// channel interleaving and an XOR fold of row bits into the bank index to
// spread strided accesses (the XOR-based mapping of Section III-B2).
func (c *Controller) decode(addr int64) (ch, bk int, row int64) {
	line := addr / c.cfg.LineBytes
	ch = int(line % int64(c.cfg.Channels))
	line /= int64(c.cfg.Channels)
	linesPerRow := c.cfg.RowBytes / c.cfg.LineBytes
	row = line / linesPerRow
	bk = int((row ^ line) % int64(c.cfg.BanksPerChannel))
	if bk < 0 {
		bk = -bk
	}
	return ch, bk, row
}

// Access simulates one line read/write issued at time now and returns
// the completion time. Row hits pay CAS+burst; misses add activation;
// conflicts add precharge of the currently open row, which may close
// only once its last burst is out. Column commands to an open row
// pipeline one burst apart, and each channel's data bus carries one
// Burst at a time.
func (c *Controller) Access(now event.Time, addr int64) event.Time {
	cfg := &c.cfg
	ch, bk, row := c.decode(addr)
	b := &c.banks[ch][bk]
	var cmd event.Time
	switch {
	case b.openRow == row:
		c.Hits++
		cmd = max(now, b.colAt)
	case b.openRow == -1:
		c.Misses++
		cmd = max(now, b.doneAt) + cfg.TRCD
	default:
		c.Conflicts++
		cmd = max(now, b.doneAt) + cfg.TRP + cfg.TRCD
	}
	data := max(cmd+cfg.TCAS, c.busAt[ch])
	done := data + cfg.Burst
	b.openRow = row
	b.colAt = done - cfg.TCAS
	b.doneAt = done
	c.busAt[ch] = done
	return done
}

// String summarises controller state.
func (c *Controller) String() string {
	return fmt.Sprintf("ddr4(ch=%d banks=%d peak=%.1fGB/s eff=%.1fGB/s hits=%d misses=%d conflicts=%d)",
		c.cfg.Channels, c.cfg.BanksPerChannel, c.cfg.PeakBandwidthGBs(),
		c.cfg.EffectiveBandwidthGBs(), c.Hits, c.Misses, c.Conflicts)
}

// replay streams bytes line by line through a fresh controller, every
// line issued at t=0 in address order, and returns the last completion.
func replay(cfg Config, bytes int64) (event.Time, *Controller) {
	c := NewController(cfg)
	var end event.Time
	for addr := int64(0); addr < bytes; addr += cfg.LineBytes {
		end = max(end, c.Access(0, addr))
	}
	return end, c
}

func TestPeakBandwidth(t *testing.T) {
	cfg := DDR4_2400()
	// 4 channels x 19.2 GB/s = 76.8 GB/s.
	got := cfg.PeakBandwidthGBs()
	if got < 73 || got > 80 {
		t.Errorf("peak bandwidth = %.1f GB/s, want ~76.8", got)
	}
}

func TestEffectiveBandwidthBelowPeak(t *testing.T) {
	cfg := DDR4_2400()
	eff, peak := cfg.EffectiveBandwidthGBs(), cfg.PeakBandwidthGBs()
	if eff >= peak {
		t.Errorf("effective %.1f >= peak %.1f", eff, peak)
	}
	if eff < 0.7*peak {
		t.Errorf("effective %.1f implausibly low vs peak %.1f", eff, peak)
	}
}

// TestStreamTimeMatchesBankReplay is the oracle check: from one row
// stripe (32 KiB) to 64 MiB, the closed-form StreamTime stays within
// [1.0, 1.15] of a line-by-line replay through the bank model, and the
// replay never streams faster than the channels' pins allow.
func TestStreamTimeMatchesBankReplay(t *testing.T) {
	cfg := DDR4_2400()
	for bytes := int64(32 << 10); bytes <= 64<<20; bytes *= 2 {
		end, c := replay(cfg, bytes)
		ratio := float64(cfg.StreamTime(bytes)) / float64(end)
		if ratio < 1.0 || ratio > 1.15 {
			t.Errorf("%d B: StreamTime/replay = %.3f, want [1.0, 1.15] (%v)", bytes, ratio, c)
		}
		if gbs := float64(bytes) / end.Seconds() / 1e9; gbs > cfg.PeakBandwidthGBs() {
			t.Errorf("%d B: replay streams %.1f GB/s, above the %.1f GB/s pin peak",
				bytes, gbs, cfg.PeakBandwidthGBs())
		}
	}
}

// TestStreamTimeSubStripeRounding pins a known imprecision of the
// closed-form model: any transfer below one row stripe is billed as a
// whole stripe, 16.3x the replay for a single line and 6.1x at 4 KiB.
// Changing it would move every artefact, so it is recorded here rather
// than fixed silently.
func TestStreamTimeSubStripeRounding(t *testing.T) {
	cfg := DDR4_2400()
	stripe := cfg.RowBytes * int64(cfg.Channels)
	full := cfg.StreamTime(stripe)
	for _, bytes := range []int64{1, cfg.LineBytes, 4 << 10, stripe - 1} {
		if got := cfg.StreamTime(bytes); got != full {
			t.Errorf("StreamTime(%d) = %v, want the full-stripe %v", bytes, got, full)
		}
	}
	for _, c := range []struct {
		bytes int64
		ratio float64
	}{{64, 16.3}, {4 << 10, 6.1}} {
		end, _ := replay(cfg, c.bytes)
		got := float64(cfg.StreamTime(c.bytes)) / float64(end)
		if got < c.ratio-0.05 || got > c.ratio+0.05 {
			t.Errorf("%d B: StreamTime/replay = %.2f, want %.1f", c.bytes, got, c.ratio)
		}
	}
}

func TestRowHitMissConflict(t *testing.T) {
	c := NewController(DDR4_2400())
	cfg := c.cfg
	// First access to a row: miss (activation).
	d1 := c.Access(0, 0)
	if want := cfg.TRCD + cfg.TCAS + cfg.Burst; d1 != want {
		t.Errorf("cold access = %v, want %v", d1, want)
	}
	// Same line again: row hit, faster.
	d2 := c.Access(d1, 0) - d1
	if want := cfg.TCAS + cfg.Burst; d2 != want {
		t.Errorf("row hit = %v, want %v", d2, want)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	// A different row in the same bank: conflict (precharge first).
	// Same channel & bank requires stepping by channels*rowBytes... find
	// an address that collides by scanning.
	var conflictAddr int64 = -1
	ch0, bk0, row0 := c.decode(0)
	for a := int64(1); a < 1<<26; a += cfg.LineBytes {
		ch, bk, row := c.decode(a)
		if ch == ch0 && bk == bk0 && row != row0 {
			conflictAddr = a
			break
		}
	}
	if conflictAddr < 0 {
		t.Fatal("no conflicting address found")
	}
	before := c.Conflicts
	c.Access(2*d1, conflictAddr)
	if c.Conflicts != before+1 {
		t.Error("expected a row conflict")
	}
}

func TestBankQueueing(t *testing.T) {
	c := NewController(DDR4_2400())
	// Two back-to-back accesses to the same bank issued at time 0: the
	// second must wait for the first.
	d1 := c.Access(0, 0)
	d2 := c.Access(0, 0)
	if d2 <= d1 {
		t.Errorf("second access done %v, first %v: no serialisation", d2, d1)
	}
}

// TestChannelBusSerialisesBursts: two lines in different banks of one
// channel, issued together, cannot share the channel's data bus.
func TestChannelBusSerialisesBursts(t *testing.T) {
	c := NewController(DDR4_2400())
	cfg := c.cfg
	ch0, bk0, _ := c.decode(0)
	other := int64(-1)
	for a := cfg.LineBytes; a < 1<<20; a += cfg.LineBytes {
		if ch, bk, _ := c.decode(a); ch == ch0 && bk != bk0 {
			other = a
			break
		}
	}
	if other < 0 {
		t.Fatal("no second bank on channel 0")
	}
	d1, d2 := c.Access(0, 0), c.Access(0, other)
	if d2-d1 != cfg.Burst {
		t.Errorf("second burst done %v after the first, want one Burst (%v)", d2-d1, cfg.Burst)
	}
}

func TestChannelsSpreadLines(t *testing.T) {
	c := NewController(DDR4_2400())
	seen := map[int]bool{}
	for i := int64(0); i < 8; i++ {
		ch, _, _ := c.decode(i * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Errorf("line interleave hit %d channels, want 4", len(seen))
	}
}

func TestStreamTimeMonotone(t *testing.T) {
	cfg := DDR4_2400()
	if cfg.StreamTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	small, large := cfg.StreamTime(1<<20), cfg.StreamTime(1<<24)
	if small <= 0 || large <= small {
		t.Errorf("stream times not monotone: %v, %v", small, large)
	}
	// 1 GiB at ~70 GB/s is ~15 ms.
	sec := cfg.StreamTime(1 << 30).Seconds()
	if sec < 0.005 || sec > 0.05 {
		t.Errorf("1 GiB stream = %v s, want ~0.015", sec)
	}
}

func TestNewControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewController(Config{})
}

func TestString(t *testing.T) {
	c := NewController(DDR4_2400())
	if s := c.String(); !strings.Contains(s, "ddr4") {
		t.Errorf("String = %q", s)
	}
}

// Property: access completion times are causally consistent — the result
// is never before the issue time plus the minimum service latency, and
// per-bank order is preserved.
func TestAccessCausalityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewController(DDR4_2400())
		cfg := c.cfg
		minLat := cfg.TCAS + cfg.Burst
		now := event.Time(0)
		for _, a := range addrs {
			done := c.Access(now, int64(a))
			if done < now+minLat {
				return false
			}
			now += 100 // issue every 100 ps
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripIsWorstCaseAccess: RoundTrip must equal the row-conflict
// access path (the slowest single-line latency the controller can
// charge) and bound every path Access actually takes — the property the
// parsim lookahead derivation rests on.
func TestRoundTripIsWorstCaseAccess(t *testing.T) {
	cfg := DDR4_2400()
	if got, want := cfg.RoundTrip(), cfg.TRP+cfg.TRCD+cfg.TCAS+cfg.Burst; got != want {
		t.Fatalf("RoundTrip = %v, want %v", got, want)
	}
	// ~43ns for DDR4-2400: sanity-band the magnitude so a unit slip
	// (ps vs ns) cannot hide.
	if rt := cfg.RoundTrip(); rt < 30*event.Nanosecond || rt > 60*event.Nanosecond {
		t.Errorf("DDR4-2400 round trip %v outside the 30-60ns sanity band", rt)
	}
	// Every access path (hit, miss, conflict) fits inside RoundTrip.
	// Issuing each access at the previous completion keeps the banks
	// free, so the measured span is pure access latency, not queueing.
	c := NewController(cfg)
	var at, worst event.Time
	for i := 0; i < 64; i++ {
		addr := int64(i%3) * cfg.RowBytes * int64(cfg.Channels) // forces row churn
		done := c.Access(at, addr)
		if lat := done - at; lat > worst {
			worst = lat
		}
		at = done
	}
	if worst > cfg.RoundTrip() {
		t.Errorf("observed access latency %v exceeds RoundTrip %v", worst, cfg.RoundTrip())
	}
}
