package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// Exporters serialize a Recording. Output is byte-stable: fields are written
// in a fixed order with strconv (no map iteration, no float formatting), so
// the same recording always produces the same bytes — the property the
// telemetry golden test and `make telemetry-verify` pin.

// WriteJSONL writes the recording as JSON Lines: one header object
//
//	{"intervalPs":N,"samples":M,"dropped":D,"events":E,"eventsDropped":X,"probes":["a","b",...]}
//
// followed by one object per tick
//
//	{"tPs":T,"v":[v0,v1,...]}
//
// where v is parallel to the header's probes array, and then one object per
// recorded event
//
//	{"tPs":T,"ev":"PAUSE_ON","dev":D,"port":P,"flow":F,"seq":S,"aux":A}
//
// Timestamps and the interval are in picoseconds, the simulator's native
// resolution.
func WriteJSONL(w io.Writer, rec *Recording) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)

	bw.WriteString(`{"intervalPs":`)
	bw.Write(strconv.AppendInt(buf, int64(rec.Interval), 10))
	bw.WriteString(`,"samples":`)
	bw.Write(strconv.AppendInt(buf, int64(len(rec.Times)), 10))
	bw.WriteString(`,"dropped":`)
	bw.Write(strconv.AppendInt(buf, int64(rec.Dropped), 10))
	bw.WriteString(`,"events":`)
	bw.Write(strconv.AppendInt(buf, int64(len(rec.Events)), 10))
	bw.WriteString(`,"eventsDropped":`)
	bw.Write(strconv.AppendInt(buf, int64(rec.EventsDropped), 10))
	bw.WriteString(`,"probes":[`)
	for j, name := range rec.Names {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(name))
	}
	bw.WriteString("]}\n")

	for i, t := range rec.Times {
		bw.WriteString(`{"tPs":`)
		bw.Write(strconv.AppendInt(buf, int64(t), 10))
		bw.WriteString(`,"v":[`)
		for j := range rec.Series {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.Write(strconv.AppendInt(buf, rec.Series[j][i], 10))
		}
		bw.WriteString("]}\n")
	}

	for _, ev := range rec.Events {
		bw.WriteString(`{"tPs":`)
		bw.Write(strconv.AppendInt(buf, int64(ev.At), 10))
		bw.WriteString(`,"ev":"`)
		bw.WriteString(ev.Kind.String())
		bw.WriteString(`","dev":`)
		bw.Write(strconv.AppendInt(buf, int64(ev.Dev), 10))
		bw.WriteString(`,"port":`)
		bw.Write(strconv.AppendInt(buf, int64(ev.Port), 10))
		bw.WriteString(`,"flow":`)
		bw.Write(strconv.AppendUint(buf, uint64(ev.Flow), 10))
		bw.WriteString(`,"seq":`)
		bw.Write(strconv.AppendUint(buf, uint64(ev.Seq), 10))
		bw.WriteString(`,"aux":`)
		bw.Write(strconv.AppendInt(buf, int64(ev.Aux), 10))
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// WriteCSV writes the recording's series (not its events) in wide form: a
// header row "t_ps,<probe>,<probe>,..." and one row per tick. Probe names are quoted
// only when they contain a comma or quote (they normally do not: the wiring
// layer uses '/'-separated names).
func WriteCSV(w io.Writer, rec *Recording) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)

	bw.WriteString("t_ps")
	for _, name := range rec.Names {
		bw.WriteByte(',')
		bw.WriteString(csvEscape(name))
	}
	bw.WriteByte('\n')

	for i, t := range rec.Times {
		bw.Write(strconv.AppendInt(buf, int64(t), 10))
		for j := range rec.Series {
			bw.WriteByte(',')
			bw.Write(strconv.AppendInt(buf, rec.Series[j][i], 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// csvEscape quotes a field if it contains a comma, quote, or newline.
func csvEscape(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	out = append(out, '"')
	return string(out)
}
