package main

import (
	"encoding/binary"
	"math/rand"
)

// pattern is the benchmark's payload recipe. The origin's Fill writes the
// origin sequence into the first 8 bytes and a seeded mask XOR a mix of
// the sequence into every later 8-byte word; every receiver recomputes
// the whole payload from the embedded sequence and compares all of it.
// Payload sizes are multiples of 8.
type pattern struct {
	words []uint64 // words[0] unused: word 0 carries the sequence itself
}

func newPattern(seed int64, payload int) *pattern {
	if payload%8 != 0 || payload < 8 {
		panic("perfbench: payload size must be a positive multiple of 8")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := &pattern{words: make([]uint64, payload/8)}
	for i := 1; i < len(p.words); i++ {
		p.words[i] = rng.Uint64()
	}
	return p
}

// mix spreads a sequence over all 64 bits so neighbouring sequences
// differ in every word.
func mix(seq uint64) uint64 { return seq * 0x9e3779b97f4a7c15 }

// fill writes the payload for seq into buf (len(buf) == payload size).
func (p *pattern) fill(seq uint32, buf []byte) {
	if len(buf) < 8 {
		return
	}
	s := uint64(seq)
	binary.BigEndian.PutUint64(buf, s)
	m := mix(s)
	for i := 1; i < len(p.words); i++ {
		binary.BigEndian.PutUint64(buf[8*i:], p.words[i]^m)
	}
}

// check returns the origin sequence embedded in buf and whether every
// byte of buf equals the recomputed payload for it.
func (p *pattern) check(buf []byte) (uint64, bool) {
	if len(buf) < 8 {
		return 0, false
	}
	if len(buf) != 8*len(p.words) {
		return 0, false
	}
	s := binary.BigEndian.Uint64(buf)
	m := mix(s)
	for i := 1; i < len(p.words); i++ {
		if binary.BigEndian.Uint64(buf[8*i:]) != p.words[i]^m {
			return s, false
		}
	}
	return s, true
}
