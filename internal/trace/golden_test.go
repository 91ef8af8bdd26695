package trace

// chromeGolden pins the Chrome trace_event export of exerciseRecorder()
// byte for byte. Regenerate by running TestWriteChromeTraceGolden and
// copying the "got" block — but treat any drift as a format change:
// Perfetto and chrome://tracing users open exactly this shape.
const chromeGolden = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"export-test"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"power cycles"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"power events"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"predictor"}},
{"name":"powered","cat":"cycle","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1,"args":{"blocks_gated":1,"ckpt_blocks":5,"cycle":0,"max_level":2,"restored":0,"wrong_kills":1,"zombie_fn":2}},
{"name":"off","cat":"cycle","ph":"X","ts":1000,"dur":1000,"pid":1,"tid":1,"args":{"cycle":0}},
{"name":"powered","cat":"cycle","ph":"X","ts":2000,"dur":1000,"pid":1,"tid":1,"args":{"blocks_gated":0,"ckpt_blocks":0,"cycle":1,"max_level":0,"restored":5,"wrong_kills":0,"zombie_fn":0}},
{"name":"cycle-start","cat":"event","ph":"i","ts":0,"pid":1,"tid":2,"s":"t","args":{"a":0,"b":0,"cycle":0,"v":0}},
{"name":"gate-level","cat":"event","ph":"i","ts":1000,"pid":1,"tid":3,"s":"t","args":{"a":0,"b":2,"cycle":0,"v":3.3}},
{"name":"block-gated","cat":"event","ph":"i","ts":1000,"pid":1,"tid":3,"s":"t","args":{"a":3,"b":1,"cycle":0,"v":1}},
{"name":"wrong-kill","cat":"event","ph":"i","ts":1000,"pid":1,"tid":3,"s":"t","args":{"a":3,"b":1,"cycle":0,"v":0}},
{"name":"sweep","cat":"event","ph":"i","ts":1000,"pid":1,"tid":3,"s":"t","args":{"a":4,"b":4096,"cycle":0,"v":0}},
{"name":"jit-trigger","cat":"event","ph":"i","ts":1000,"pid":1,"tid":2,"s":"t","args":{"a":0,"b":0,"cycle":0,"v":3.19}},
{"name":"checkpoint","cat":"event","ph":"i","ts":1000,"pid":1,"tid":2,"s":"t","args":{"a":5,"b":0,"cycle":0,"v":0}},
{"name":"outage","cat":"event","ph":"i","ts":1000,"pid":1,"tid":2,"s":"t","args":{"a":0,"b":0,"cycle":0,"v":0}},
{"name":"power-good","cat":"event","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"a":0,"b":0,"cycle":0,"v":3.41}},
{"name":"cycle-start","cat":"event","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"a":0,"b":0,"cycle":1,"v":0}},
{"name":"restore","cat":"event","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"a":5,"b":0,"cycle":1,"v":0}},
{"name":"threshold-reset","cat":"event","ph":"i","ts":2000,"pid":1,"tid":3,"s":"t","args":{"a":0,"b":0,"cycle":1,"v":0.01}},
{"name":"capacitor","ph":"C","ts":0,"pid":1,"tid":0,"args":{"stored_uJ":2.9000000000000004,"voltage_V":3.5}},
{"name":"dcache-blocks","ph":"C","ts":0,"pid":1,"tid":0,"args":{"dirty":0,"gated":0,"live":10}},
{"name":"edbp","ph":"C","ts":0,"pid":1,"tid":0,"args":{"fpr":0,"level":0,"zombie_ratio":0}},
{"name":"capacitor","ph":"C","ts":3000,"pid":1,"tid":0,"args":{"stored_uJ":2.7,"voltage_V":3.4}},
{"name":"dcache-blocks","ph":"C","ts":3000,"pid":1,"tid":0,"args":{"dirty":1,"gated":2,"live":8}},
{"name":"edbp","ph":"C","ts":3000,"pid":1,"tid":0,"args":{"fpr":0,"level":1,"zombie_ratio":0}}
]}
`
