package client

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseReadLine(t *testing.T) {
	data, err := parseReadLine("OK 00ff10")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{0x00, 0xff, 0x10}) {
		t.Fatalf("parsed %x", data)
	}
	if _, err := parseReadLine("ERR address 9 out of range"); err == nil {
		t.Error("ERR line accepted")
	} else if err.Error() != "client: address 9 out of range" {
		t.Errorf("error = %q", err)
	}
	if _, err := parseReadLine("OK zz"); err == nil {
		t.Error("bad hex accepted")
	}
}

func TestParseOKLine(t *testing.T) {
	if err := parseOKLine("OK"); err != nil {
		t.Error(err)
	}
	if err := parseOKLine("OK 5"); err != nil {
		t.Error(err)
	}
	if err := parseOKLine("ERR boom"); err == nil {
		t.Error("ERR line accepted")
	}
}

func TestStatInt(t *testing.T) {
	kv := map[string]string{
		"horam_engine_ops_total":             "42",
		`horam_shard_cycles{shard="3"}`:      "-1",
		"horam_server_drain_seconds_sum":     "3.5",
		`horam_shard_hits{shard="0"}`:        "9223372036854775808",
		"horam_server_window_requests_total": "",
	}
	if n, err := StatInt(kv, "horam_engine_ops_total"); err != nil || n != 42 {
		t.Errorf("StatInt = %d, %v", n, err)
	}
	if n, err := StatInt(kv, `horam_shard_cycles{shard="3"}`); err != nil || n != -1 {
		t.Errorf("labelled series: StatInt = %d, %v", n, err)
	}
	for _, series := range []string{"absent", "horam_server_drain_seconds_sum", `horam_shard_hits{shard="0"}`, "horam_server_window_requests_total"} {
		if _, err := StatInt(kv, series); err == nil {
			t.Errorf("%s accepted", series)
		} else if !strings.Contains(err.Error(), series) {
			t.Errorf("%s: error %q does not name the series", series, err)
		}
	}
}
