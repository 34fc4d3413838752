package main

import (
	"time"

	"nvmgc/internal/gc"
)

// timedG1 times every collection from outside the collector. It embeds
// *gc.G1 and overrides the three collection entry points, so the keyed
// runner's mixed/full type assertions still find them and every call a
// scenario makes lands here. Host time and Go allocations are always
// counted (two clock reads and two counter reads per collection); a span
// is recorded only in a traced round.
type timedG1 struct {
	*gc.G1
	r      *round
	label  string // collector configuration, for per-config figures
	parent int    // span the collections nest under
}

func (c *timedG1) Collect(threads int) (gc.CollectionStats, error) {
	return c.timed("gc.young", func() (gc.CollectionStats, error) { return c.G1.Collect(threads) })
}

func (c *timedG1) CollectMixed(threads, maxOldRegions int) (gc.CollectionStats, error) {
	return c.timed("gc.mixed", func() (gc.CollectionStats, error) { return c.G1.CollectMixed(threads, maxOldRegions) })
}

func (c *timedG1) CollectFull(threads int) (gc.CollectionStats, error) {
	return c.timed("gc.full", func() (gc.CollectionStats, error) { return c.G1.CollectFull(threads) })
}

func (c *timedG1) timed(span string, collect func() (gc.CollectionStats, error)) (gc.CollectionStats, error) {
	id := c.r.tr.begin(span, c.parent)
	a0 := readAllocs()
	t0 := time.Now()
	s, err := collect()
	host := time.Since(t0)
	a1 := readAllocs()
	c.r.tr.end(id)

	c.r.attempted++
	if err != nil {
		c.r.failf("%s %s: %v", c.label, span, err)
	}
	v := c.r.values
	v["gc.host_s"] += host.Seconds()
	v["gc.host_s."+c.label] += host.Seconds()
	v["gc.n."+c.label]++
	v["gc.host_allocs"] += float64(a1.objects - a0.objects)
	v["gc.host_bytes"] += float64(a1.bytes - a0.bytes)
	v["gc.collections"]++
	v["gc.sim_pause_ms"] += ms(s.Pause)
	v["gc.sim_read_mostly_ms"] += ms(s.ReadMostly)
	v["gc.sim_write_only_ms"] += ms(s.WriteOnly)
	v["gc.sim_cleanup_ms"] += ms(s.Cleanup)
	v["gc.copied_mib"] += mib(s.BytesCopied)
	v["gc.stolen_slots"] += float64(s.StolenSlots)
	v["gc.wasted_copies"] += float64(s.WastedCopies)
	v["gc.headermap_hits"] += float64(s.HeaderMapHits)
	v["gc.headermap_fallbacks"] += float64(s.HeaderMapFallbacks)
	v["gc.cache_fallback_mib"] += mib(s.CacheFallbackBytes)
	c.r.digest(c.label, span, s.Pause, s.ReadMostly, s.WriteOnly, s.Cleanup, s.BytesCopied,
		s.ObjectsCopied, s.ObjectsPromoted, s.StolenSlots, s.WastedCopies, s.HeaderMapHits,
		s.HeaderMapFallbacks, s.CacheFallbackBytes, s.NVM, s.DRAM)
	return s, err
}
