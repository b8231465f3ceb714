<XMark-Q6>{
  for $s in /site return
  for $r in $s/regions return
  for $i in $r//item return $i
}</XMark-Q6>
