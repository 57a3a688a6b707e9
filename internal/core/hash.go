package core

// Deterministic hash draws.
//
// Every seeded decision in the repo (fault injection, corpus axes, jitter,
// transport chaos, loadgen workloads) is an independent hash of its
// coordinates rather than a draw from a shared random stream, so results
// do not depend on evaluation order or worker count. These two helpers are
// the only copies of the bit mixer and the float map; changing either
// moves the golden tables, the corpus IDs and the seeded admission logs.

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// 64-bit mixer.
//
//rtmdm:hotpath
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Unit maps a hash to a uniform float64 in [0, 1) using its top 53 bits.
//
//rtmdm:hotpath
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
