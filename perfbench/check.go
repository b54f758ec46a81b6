package main

import (
	"fmt"
	"slices"

	"parbitonic"
)

// checkU32 compares a sorted output against the standard library's
// sort of the same input.
func checkU32(got, want []uint32) error {
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("u32 output differs from slices.Sort at index %d of %d", i, len(want))
	}
	return nil
}

// kvSum is an order-independent checksum of a record multiset: a count
// and the sum and xor of a strong mix of each (key, payload) pair.
type kvSum struct{ n, sum, xor uint64 }

func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func sumKV(recs []parbitonic.KV64) kvSum {
	s := kvSum{n: uint64(len(recs))}
	for _, r := range recs {
		h := mix(r.K ^ mix(r.V))
		s.sum += h
		s.xor ^= h
	}
	return s
}

// checkKV requires non-decreasing keys and the input's multiset of
// (key, payload) records.
func checkKV(got []parbitonic.KV64, want kvSum) error {
	for i := 1; i < len(got); i++ {
		if got[i].K < got[i-1].K {
			return fmt.Errorf("kv64 keys decrease at index %d", i)
		}
	}
	if s := sumKV(got); s != want {
		return fmt.Errorf("kv64 output is not a permutation of the input (%d records, want %d)", s.n, want.n)
	}
	return nil
}

// simModel is what the simulator must report for the sim workload's
// shape on every operation: the LogGP model time and the §3.4
// communication counts, per processor.
type simModel struct {
	timeUs               float64
	remaps, volume, msgs int
}

func (m simModel) check(res parbitonic.Result) error {
	got := simModel{res.Time, res.Remaps, res.VolumeSent, res.MessagesSent}
	if got != m {
		return fmt.Errorf("simulator reported time %v µs, R/V/M %d/%d/%d; want %v µs, %d/%d/%d",
			got.timeUs, got.remaps, got.volume, got.msgs, m.timeUs, m.remaps, m.volume, m.msgs)
	}
	return nil
}
