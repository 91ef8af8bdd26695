package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// recordingDigest summarizes one recorded kernel: its counters, and one
// sha256 over every event as (op byte, little-endian arg) followed by the
// code regions. Any change to an event, its order or its encoding's
// decoded value shows as a different line.
func recordingDigest(tr *Trace) string {
	h := sha256.New()
	var b [5]byte
	for _, ev := range tr.Events {
		op, arg := opArg(ev)
		b[0] = byte(op)
		binary.LittleEndian.PutUint32(b[1:], arg)
		h.Write(b[:])
	}
	for _, r := range tr.Regions {
		fmt.Fprintf(h, "%s %#x %d\n", r.Name, r.Base, r.Size)
	}
	return fmt.Sprintf("events=%d instr=%d loads=%d stores=%d checksum=%08x data=%d regions=%d sha256=%x",
		len(tr.Events), tr.Instructions, tr.Loads, tr.Stores, tr.Checksum, tr.DataBytes, len(tr.Regions), h.Sum(nil))
}

// TestRecordingGolden pins every recorded event of all 20 kernels at
// scale 0.05, and of the six kernels perfbench replays at 0.25. The
// digests hash decoded (op, arg) pairs, not an Event's memory layout, so
// a change to how events are stored must leave every line as it is. A
// kernel change that moves a line invalidates every stored experiment
// over that kernel.
func TestRecordingGolden(t *testing.T) {
	golden := []struct {
		app   string
		scale float64
		want  string
	}{
		{"adpcm_c", 0.05, "events=15841 instr=68341 loads=7000 stores=5339 checksum=b95ea643 data=9124 regions=1 sha256=06e4acb9456d43943f66eb47f05e0a27397eabf134075df6a5ea6de7c3180261"},
		{"adpcm_d", 0.05, "events=15842 instr=54342 loads=7000 stores=5340 checksum=c1cefa20 data=9124 regions=1 sha256=b0bbdfa3e72262a486756034c217a454ca6af7e706401cdde5be1b1898139e47"},
		{"basicmath", 0.05, "events=12514 instr=106021 loads=1200 stores=1712 checksum=3982097d data=4096 regions=3 sha256=43acd1fb9177686d0546517a3fb48f44aaff1393b1dfe39eee15927511bee7dc"},
		{"bitcount", 0.05, "events=10636 instr=123556 loads=5950 stores=1280 checksum=f10c3ceb data=4352 regions=3 sha256=c5a79e6e47cfad2220901c22a8ee72270d70e34a93647f34f36c6e635e020fa7"},
		{"cjpeg", 0.05, "events=10064 instr=18768 loads=4608 stores=1088 checksum=e4c9cc18 data=1024 regions=2 sha256=2e9cb38cd1fbe16711583c8b86030e247e40e697f9446d883de28c4b6a8e83e5"},
		{"crc32", 0.05, "events=40258 instr=64258 loads=16000 stores=8256 checksum=fc395591 data=9024 regions=1 sha256=1dc0de7dd21f3cb4b009b8688cb3f6dfdf462f70127855ecf44009e2febaeb51"},
		{"dijkstra", 0.05, "events=2002 instr=3176 loads=996 stores=252 checksum=92c2255c data=320 regions=2 sha256=be545ce51946a36ec5f265c146c0edb1067584656dd66045d82117a446b2a3a6"},
		{"djpeg", 0.05, "events=9552 instr=18000 loads=4352 stores=832 checksum=e6d13c82 data=1024 regions=2 sha256=942d39028211d1bf5378c4a9eff9a44fefb3dc2b07ae37a475578fd64d532335"},
		{"fft", 0.05, "events=29109 instr=57218 loads=14848 stores=11712 checksum=765e6a34 data=6144 regions=2 sha256=d106a6b7fe0f028733ea6612776bf7069a583e3fea007ee7d6917e5f21949f2e"},
		{"g721", 0.05, "events=67602 instr=148202 loads=36400 stores=15600 checksum=42164e14 data=2664 regions=1 sha256=e643750fa6a017a3f9e776931a54d5e78187afff39f650e898fa2ba8eb7738ff"},
		{"gsm", 0.05, "events=19792 instr=34468 loads=12516 stores=834 checksum=0005b6ec data=1040 regions=4 sha256=e51a20f3fbe573d1c971ca7d41e422a00c1504e6aa40acc25ce2a00cae853315"},
		{"ifft", 0.05, "events=29109 instr=57218 loads=14848 stores=11712 checksum=200cff15 data=6144 regions=2 sha256=d106a6b7fe0f028733ea6612776bf7069a583e3fea007ee7d6917e5f21949f2e"},
		{"mpeg2", 0.05, "events=16135 instr=29241 loads=9602 stores=2048 checksum=0003bb9a data=2048 regions=2 sha256=60e04fcbc282eead3fffb1434deafe7dc00dbd13f037a2c948c483bc35c39aa2"},
		{"patricia", 0.05, "events=15014 instr=24723 loads=7809 stores=1804 checksum=78dde7f1 data=4816 regions=2 sha256=8c661fc4599758b3ab21ce19374dbed359a8693175a93a0c6c23a6de7709e0ed"},
		{"pegwit", 0.05, "events=8888 instr=18259 loads=4169 stores=2578 checksum=9ddd9d05 data=160 regions=2 sha256=0d27276d28bfce8fd62872e3b21430c882eff391dc96a0d8440c2b0e2d2dd2d8"},
		{"qsort", 0.05, "events=16392 instr=24043 loads=7868 stores=3607 checksum=efe78bc0 data=2200 regions=2 sha256=8db354227fd4d762eb11a8cf49030f9bf14b67b29f19b27eb590ca00a70e0723"},
		{"rijndael", 0.05, "events=56554 instr=86244 loads=31320 stores=16992 checksum=0db2f605 data=1168 regions=2 sha256=e86f87e65e9b8d47632d9089c23d7f502842bbdf964c8a8449ef04a7dd583a91"},
		{"sha", 0.05, "events=14868 instr=33117 loads=8400 stores=3024 checksum=1b048f22 data=1664 regions=2 sha256=e55b594b70c538d50094c202efef11b36276d6139896f36e26b8cef78396f11e"},
		{"stringsearch", 0.05, "events=3451 instr=4067 loads=362 stores=2785 checksum=0000008c data=1168 regions=2 sha256=6a0711d33ba606d09e62b59b37faad01d298624328334aa9b26201978650738f"},
		{"susan", 0.05, "events=1825 instr=2689 loads=816 stores=591 checksum=a4b9f481 data=640 regions=1 sha256=808a35a3faa03b7f33f68ff539018bbb7b868e9c5e311c71d2a4c8e70888676d"},
		{"crc32", 0.25, "events=200258 instr=320258 loads=80000 stores=40256 checksum=82f6be90 data=41024 regions=1 sha256=49a56c8deacbe8cdff30203b9c6fc0d9335051e88ade98b05bcd1d4ad94c8831"},
		{"adpcm_d", 0.25, "events=78842 instr=271342 loads=35000 stores=26340 checksum=921675fb data=44116 regions=1 sha256=6e400799aae48d0453417c54b94777a677df8814f55361347567d720c16b1243"},
		{"susan", 0.25, "events=54141 instr=90645 loads=34476 stores=2087 checksum=c8bdfc33 data=2336 regions=1 sha256=f341682a7cd5144d5339ce51749447ca7471c69bce25722f15e255e46cf37bc9"},
		{"sha", 0.25, "events=74340 instr=165585 loads=42000 stores=15120 checksum=d836f458 data=7040 regions=2 sha256=0fc38c23d42067835cf8c35a75e28240b3a51d7a80ac64f68a4680f3d10acbb2"},
		{"dijkstra", 0.25, "events=10394 instr=16660 loads=5308 stores=1062 checksum=67927bcc data=320 regions=2 sha256=0ac8b5fe98886c7e450583beba0a8916b36d7c8be64d52fafbdeba53ef09a47b"},
		{"rijndael", 0.25, "events=279394 instr=427164 loads=155160 stores=83232 checksum=b12e2dd0 data=4048 regions=2 sha256=106e04f34ea56807dc92be4ad10ebd28cf55e69719fbc0445e2ba9c878fd4498"},
	}
	seen := map[string]bool{}
	for _, g := range golden {
		seen[fmt.Sprintf("%s@%g", g.app, g.scale)] = true
		tr, err := Cached(g.app, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordingDigest(tr); got != g.want {
			t.Errorf("%s@%g:\n got %s\nwant %s", g.app, g.scale, got, g.want)
		}
	}
	for _, a := range Apps() {
		if !seen[a.Name+"@0.05"] {
			t.Errorf("%s@0.05 has no golden line", a.Name)
		}
	}
	for _, app := range []string{"crc32", "adpcm_d", "susan", "sha", "dijkstra", "rijndael"} {
		if !seen[app+"@0.25"] {
			t.Errorf("%s@0.25 has no golden line", app)
		}
	}
}
