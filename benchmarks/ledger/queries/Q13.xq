<XMark-Q13>{
  for $s in /site return
  for $r in $s/regions return
  for $a in $r/australia return
  for $i in $a/item return
    <item>{($i/name/text(), $i/description)}</item>
}</XMark-Q13>
