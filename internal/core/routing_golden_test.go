package core_test

import (
	"testing"

	"github.com/datacron-project/datacron/internal/adsb"
	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/cluster"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
)

// Routing-key bytes are a format, not an implementation detail: they key the
// snapshot's applied offsets on disk, pick the ingest worker
// (groupOf(key) % workers) and pick the owning node on the cluster ring.
// This table was recorded at the commit before the extractors were unified;
// a change to any column strands recovered state on the wrong worker or
// entities on the wrong node.
var routingGolden = []struct {
	name   string
	domain model.Domain
	line   string
	ok     bool // the domain extractor recognises the line; otherwise the key is the raw line
	key    string
	worker int    // groupOf(key) % 4
	owner  string // owner on the 3-member ring below
}{
	{"ais single sentence", model.Maritime, "!AIVDM,1,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*72", true, "237000123", 3, "n3:9000"},
	{"ais own-ship AIVDO", model.Maritime, "!AIVDO,1,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*70", true, "237000123", 3, "n3:9000"},
	{"ais CRLF", model.Maritime, "!AIVDM,1,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*72\r\n", true, "237000123", 3, "n3:9000"},
	{"ais total 01", model.Maritime, "!AIVDM,01,01,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*72", true, "237000123", 3, "n3:9000"},
	{"ais fragment seq 5", model.Maritime, "!AIVDM,2,1,5,B,53R1Efh000000000001@E=B1HE=<Dh00000000000000040Ht0000000,0*6F", true, "seq:5:B", 1, "n1:9000"},
	{"ais fragment seq 05", model.Maritime, "!AIVDM,2,1,05,B,53R1Efh000000000001@E=B1HE=<Dh00000000000000040Ht0000000,0*5F", true, "seq:5:B", 1, "n1:9000"},
	{"ais fragment empty seq", model.Maritime, "!AIVDM,2,2,,B,000000000000000,2*17", true, "seq::B", 2, "n1:9000"},
	{"ais fragment non-numeric seq", model.Maritime, "!AIVDM,2,1,xx,B,53R1Efh000000000001@E=B1HE=<Dh00000000000000040Ht0000000,0*5A", true, "seq:xx:B", 2, "n2:9000"},
	{"ais payload truncated after MMSI", model.Maritime, "!AIVDM,1,1,,A,13R1Efh", true, "237000123", 3, "n3:9000"},
	{"ais payload truncated inside MMSI", model.Maritime, "!AIVDM,1,1,,A,13R1", false, "!AIVDM,1,1,,A,13R1", 3, "n3:9000"},
	{"ais non-numeric total", model.Maritime, "!AIVDM,x,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*00", false, "!AIVDM,x,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*00", 1, "n1:9000"},
	{"ais non-AIVDM", model.Maritime, "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47", false, "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47", 3, "n3:9000"},
	{"ais empty", model.Maritime, "", false, "", 0, ""},
	{"sbs upper-case hex", model.Aviation, "MSG,3,1,1,ABC123,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,3,,,1.00000,2.00000,,,0,0,0,0", true, "ABC123", 1, "n3:9000"},
	{"sbs lower-case hex", model.Aviation, "MSG,1,1,1,abc123,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,TST,,,,,,,,0,0,0,0", true, "ABC123", 1, "n3:9000"},
	{"sbs padded ident", model.Aviation, "MSG,3,1,1, 4ca1fa ,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,35000,,,51.1,-0.5,,,,,,0", true, "4CA1FA", 3, "n2:9000"},
	{"sbs non-ASCII ident", model.Aviation, "MSG,3,1,1,ZügA1,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,35000,,,51.1,-0.5,,,,,,0", true, "ZÜGA1", 1, "n3:9000"},
	{"sbs blank ident", model.Aviation, "MSG,3,1,1,,1,rest", false, "MSG,3,1,1,,1,rest", 0, "n2:9000"},
	{"sbs too few fields", model.Aviation, "MSG,3,1,1", false, "MSG,3,1,1", 3, "n2:9000"},
}

func TestRoutingKeyGolden(t *testing.T) {
	ring := cluster.NewRing([]string{"n1:9000", "n2:9000", "n3:9000"}, 0)
	for _, tc := range routingGolden {
		t.Run(tc.name, func(t *testing.T) {
			// The domain extractor: accept/reject, key bytes, dst prefix kept
			// and — on reject — nothing appended.
			extract, appendKey := ais.RoutingKey, ais.AppendRoutingKey
			if tc.domain == model.Aviation {
				extract, appendKey = adsb.RoutingKey, adsb.AppendRoutingKey
			}
			wantDomain := ""
			if tc.ok {
				wantDomain = tc.key
			}
			if key, ok := extract(tc.line); ok != tc.ok || key != wantDomain {
				t.Errorf("RoutingKey = %q, %v; want %q, %v", key, ok, wantDomain, tc.ok)
			}
			if dst, ok := appendKey([]byte("pfx-"), tc.line); ok != tc.ok || string(dst) != "pfx-"+wantDomain {
				t.Errorf("AppendRoutingKey = %q, %v; want %q, %v", dst, ok, "pfx-"+wantDomain, tc.ok)
			}

			// The pipeline's key (raw-line fallback included) and what hangs
			// off it.
			p := core.New(core.Config{Domain: tc.domain})
			if key := p.RoutingKey(tc.line); key != tc.key {
				t.Errorf("Pipeline.RoutingKey = %q, want %q", key, tc.key)
			}
			if dst := p.AppendRoutingKey([]byte("pfx-"), tc.line); string(dst) != "pfx-"+tc.key {
				t.Errorf("Pipeline.AppendRoutingKey = %q, want %q", dst, "pfx-"+tc.key)
			}
			if tc.key == "" {
				return // nothing to hash: the coordinator keeps such a line local
			}
			if w := core.WorkerIndex(tc.key, 4); w != tc.worker {
				t.Errorf("worker of %q among 4 = %d, want %d", tc.key, w, tc.worker)
			}
			if o := ring.Owner(tc.key); o != tc.owner {
				t.Errorf("ring owner of %q = %q, want %q", tc.key, o, tc.owner)
			}
			if o := ring.OwnerBytes([]byte(tc.key)); o != tc.owner {
				t.Errorf("ring OwnerBytes of %q = %q, want %q", tc.key, o, tc.owner)
			}

			// Ingest routes every line through the append form: the shapes real
			// feeds carry must not allocate once dst has capacity.
			switch tc.name {
			case "ais single sentence", "ais fragment seq 5", "sbs lower-case hex":
				buf := make([]byte, 0, 64)
				if avg := testing.AllocsPerRun(100, func() { buf = p.AppendRoutingKey(buf[:0], tc.line) }); avg != 0 {
					t.Errorf("AppendRoutingKey allocates %v times per line", avg)
				}
			}
		})
	}
}
