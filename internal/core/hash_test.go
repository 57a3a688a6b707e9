package core

import "testing"

// TestHashVectors pins Mix64 and Unit bit for bit: every seeded output in
// the repo (golden tables, corpus IDs, admission logs, chaos decisions)
// was produced with exactly these values.
func TestHashVectors(t *testing.T) {
	cases := []struct {
		in, mix uint64
		unit    float64
	}{
		{0x0, 0x0000000000000000, 0},
		{0x1, 0x5692161d100b05e5, 0.3381666012719897},
		{0x2, 0xdbd238973a2b148a, 0.8586764687735633},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf, 0.8833108082136426},
		{0xdeadbeefcafebabe, 0x7ad6664f09ffe52c, 0.47983397893585744},
		{0x8000000000000000, 0x25c26ea579cea98a, 0.14749805011688955},
		{0xffffffffffffffff, 0xb4d055fcf2cbbd7b, 0.7063039534139496},
		{0x636c7573746572, 0xb835c3548f323093, 0.7195703584140538},
	}
	for _, c := range cases {
		if got := Mix64(c.in); got != c.mix {
			t.Errorf("Mix64(%#x) = %#016x, want %#016x", c.in, got, c.mix)
		}
		if got := Unit(c.mix); got != c.unit {
			t.Errorf("Unit(%#016x) = %v, want %v", c.mix, got, c.unit)
		}
	}
	for _, c := range []struct {
		in   uint64
		want float64
	}{{0, 0}, {1 << 11, 1.1102230246251565e-16}, {^uint64(0), 0.9999999999999999}} {
		if got := Unit(c.in); got != c.want {
			t.Errorf("Unit(%#x) = %v, want %v", c.in, got, c.want)
		}
	}
}
